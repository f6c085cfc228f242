package image

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"viprof/internal/addr"
)

// The RVM.map format. Jikes RVM's build produces a static boot image in
// an internal format together with a map file listing, for each method
// compiled into the image, its offset, size and fully qualified
// signature. VIProf's post-processing tools read this map to resolve
// samples landing in the boot image (paper §3.2). We serialize the same
// information as one record per line:
//
//	<hex offset> <size> <signature>
//
// Lines beginning with '#' are comments.

// AppendRVMMap appends the image's symbol table in RVM.map format to
// dst.
func AppendRVMMap(dst []byte, im *Image) []byte {
	dst = fmt.Appendf(dst, "# RVM.map for %s (size %d)\n", im.Name, im.Size)
	for _, s := range im.symbols {
		dst = fmt.Appendf(dst, "%08x %d %s\n", uint64(s.Off), s.Size, s.Name)
	}
	return dst
}

// ReadRVMMap parses an RVM.map stream into an image with the given name.
// The image size is the end of the last symbol.
func ReadRVMMap(r io.Reader, name string) (*Image, error) {
	im := New(name, 0)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var off, size uint64
		var sig string
		if _, err := fmt.Sscanf(text, "%x %d %s", &off, &size, &sig); err != nil {
			return nil, fmt.Errorf("rvmmap %s line %d: %v", name, line, err)
		}
		if off+size > im.Size {
			im.Size = off + size
		}
		if err := im.AddSymbol(Symbol{Name: sig, Off: addr.Address(off), Size: size}); err != nil {
			return nil, fmt.Errorf("rvmmap %s line %d: %v", name, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return im, nil
}
