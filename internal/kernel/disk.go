package kernel

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"viprof/internal/addr"
)

// Disk is the simulated filesystem. Profile sample files and VM-agent
// code maps are written here during a run and read back by the offline
// post-processing tools (which, being offline, read for free).
type Disk struct {
	files map[string]*bytes.Buffer
	// BytesWritten counts all bytes written through the syscall path.
	BytesWritten uint64
	// Writes counts write syscalls.
	Writes uint64
	// readInjector, when set, delivers seeded EIO on Read — the offline
	// tools' half of the fault model (see fault.go).
	readInjector *readFaultInjector
	// listInjector, when set, damages directory listings — dropped and
	// phantom entries the chain reader must degrade loudly on.
	listInjector *listFaultInjector
}

// NewDisk returns an empty disk.
func NewDisk() *Disk {
	return &Disk{files: make(map[string]*bytes.Buffer)}
}

// Append adds data to the named file, creating it if needed. This is
// the raw operation; use Kernel.SysWrite to charge simulated time.
func (d *Disk) Append(path string, data []byte) {
	f, ok := d.files[path]
	if !ok {
		f = &bytes.Buffer{}
		d.files[path] = f
	}
	f.Write(data)
	d.BytesWritten += uint64(len(data))
	d.Writes++
}

// Size reports the named file's length in bytes. It is a metadata
// operation (a stat, not a data read): the read-fault injector does not
// apply, so retention policies can size files they will never open.
func (d *Disk) Size(path string) (int, bool) {
	f, ok := d.files[path]
	if !ok {
		return 0, false
	}
	return f.Len(), true
}

// Read returns the contents of a file. An installed read-fault injector
// may deliver ErrIO for a file that exists — the degraded-platter case
// the salvage readers must surface loudly rather than treat as absence.
func (d *Disk) Read(path string) ([]byte, error) {
	f, ok := d.files[path]
	if !ok {
		return nil, fmt.Errorf("disk: no such file %q", path)
	}
	if d.readInjector != nil && d.readInjector.decide(path) {
		return nil, ErrIO
	}
	return f.Bytes(), nil
}

// SetReadFaultInjector installs the read-path fault schedule.
func (d *Disk) SetReadFaultInjector(plan ReadFaultPlan) {
	d.readInjector = newReadFaultInjector(plan)
}

// ClearReadFaultInjector removes the read-path fault schedule, so later
// reads (test re-reads, repeated report builds) see the true disk.
func (d *Disk) ClearReadFaultInjector() { d.readInjector = nil }

// ReadFaultStats returns the read injector's counters (zero value if no
// injector is installed).
func (d *Disk) ReadFaultStats() ReadFaultStats {
	if d.readInjector == nil {
		return ReadFaultStats{}
	}
	return d.readInjector.stats
}

// Exists reports whether the file exists.
func (d *Disk) Exists(path string) bool {
	_, ok := d.files[path]
	return ok
}

// Remove deletes a file if present.
func (d *Disk) Remove(path string) { delete(d.files, path) }

// Rename atomically moves a file. It is the commit step of the
// temp-then-rename protocol the VM agent uses for epoch code maps: a
// final map path either holds a complete write or does not exist.
func (d *Disk) Rename(oldPath, newPath string) error {
	f, ok := d.files[oldPath]
	if !ok {
		return fmt.Errorf("disk: rename: no such file %q", oldPath)
	}
	d.files[newPath] = f
	delete(d.files, oldPath)
	return nil
}

// List returns all file paths in sorted order. An installed list-fault
// injector may damage the result: omit entries (lost dirents) or add
// phantom ".tmp" siblings of real entries (stale dirents from an
// unsynced rename). Damage affects only what the listing claims — the
// files themselves are untouched, and direct-path Reads still work.
func (d *Disk) List() []string {
	out := make([]string, 0, len(d.files))
	for p := range d.files {
		out = append(out, p)
	}
	sort.Strings(out)
	if d.listInjector == nil {
		return out
	}
	damaged := make([]string, 0, len(out))
	seen := make(map[string]bool, len(out)+2)
	for _, p := range out {
		seen[p] = true
	}
	var phantoms []string
	for _, p := range out {
		drop, phantom := d.listInjector.decide(p)
		if !drop {
			damaged = append(damaged, p)
		}
		if phantom {
			ph := p + ".tmp"
			if !seen[ph] {
				seen[ph] = true
				phantoms = append(phantoms, ph)
			}
		}
	}
	damaged = append(damaged, phantoms...)
	sort.Strings(damaged)
	return damaged
}

// SetListFaultInjector installs the directory-damage schedule.
func (d *Disk) SetListFaultInjector(plan ListFaultPlan) {
	d.listInjector = newListFaultInjector(plan)
}

// ClearListFaultInjector removes the directory-damage schedule, so
// later listings see the true disk.
func (d *Disk) ClearListFaultInjector() { d.listInjector = nil }

// ListFaultStats returns the list injector's counters (zero value if
// no injector is installed).
func (d *Disk) ListFaultStats() ListFaultStats {
	if d.listInjector == nil {
		return ListFaultStats{}
	}
	return d.listInjector.stats
}

// DumpTo writes every simulated file under a real directory, preserving
// paths. Together with LoadDiskFrom it lets the post-processing tools
// run standalone on archived profile data, like oparchive/opreport.
func (d *Disk) DumpTo(dir string) error {
	for _, p := range d.List() {
		data, err := d.Read(p)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// LoadDiskFrom builds a Disk from a directory previously written by
// DumpTo (or assembled by hand).
func LoadDiskFrom(dir string) (*Disk, error) {
	d := NewDisk()
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		d.Append(strings.ReplaceAll(filepath.ToSlash(rel), "//", "/"), data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Loading is an offline operation; reset the accounting so the
	// loaded disk does not claim simulated write activity.
	d.BytesWritten, d.Writes = 0, 0
	return d, nil
}

// Write-path cost model (cycles). A write traverses sys_write →
// copy_from_user → vfs_write → generic_file_write; the per-byte factor
// models the user-to-pagecache copy.
const (
	writeBaseOps    = 60
	writeOpsPerWord = 1 // one op per 16 bytes copied
)

// copyBounceBuf is the fixed kernel bounce buffer the write path's
// user-to-pagecache copy streams through. Only the address pattern
// matters to the cache model (the simulated MMU has no mappings); a
// fixed hot buffer below the hypervisor hole models the pagecache
// page being filled, 16 bytes per copy op.
const copyBounceBuf = addr.Address(0xF7F0_0000)

// SysWrite performs a write syscall on behalf of p: kernel-mode
// simulated execution proportional to the payload plus the append
// itself. This is the cost the paper's VM agent pays when it "writes
// out a JIT code map to disk" and the OProfile daemon pays writing
// sample files — the cost Figure 2's long-benchmark amortization claim
// is about.
//
// The write can fail: an installed fault injector may deliver EIO,
// ENOSPC, a torn (prefix-only) write, a latency spike, or a crash that
// kills the writing process. A killed process's writes always fail
// with ErrCrashed and never touch the disk.
func (k *Kernel) SysWrite(p *Process, path string, data []byte) error {
	if p != nil && p.killed {
		return ErrCrashed
	}
	k.ExecKernel("sys_write", writeBaseOps/3, 1)
	// The user-to-pagecache copy is real memory traffic: a sequential
	// run over the bounce buffer, one op per 16 bytes.
	k.ExecKernelMem("copy_from_user", writeBaseOps/3+len(data)/16*writeOpsPerWord, 1, copyBounceBuf, 16)
	k.ExecKernel("vfs_write", writeBaseOps/3, 1)
	k.ExecKernel("generic_file_write", writeBaseOps/2, 1)
	kind, winner := arbitrate(k.injectors, path, false)
	switch kind {
	case FaultEIO:
		return ErrIO
	case FaultENOSPC:
		if n := winner.cutShort(len(data)); n > 0 {
			k.disk.Append(path, data[:n])
		}
		return ErrNoSpace
	case FaultTorn:
		if n := winner.cutTorn(len(data)); n > 0 {
			k.disk.Append(path, data[:n])
		}
		return ErrIO
	case FaultLatency:
		k.disk.Append(path, data)
		k.core.AdvanceIdle(winner.plan.LatencyCycles)
		return nil
	case FaultCrash:
		if n := winner.cutShort(len(data)); n > 0 {
			k.disk.Append(path, data[:n])
		}
		k.Kill(p)
		return ErrCrashed
	}
	k.disk.Append(path, data)
	return nil
}

// SyncLatencyCycles is the simulated rotational-disk commit latency a
// synchronous write stalls for (~17 ms at the 3.4 MHz clock: seek +
// rotational delay + journal commit on a 2005 desktop disk).
const SyncLatencyCycles = 58_000

// SysWriteSync is SysWrite followed by a synchronous commit: the caller
// stalls for the disk latency (charged as halted time — the CPU is not
// executing the process while the platter seeks). The paper's VM agent
// pays this at every epoch-boundary code-map write, which is why "longer
// running benchmarks generally experienced the smaller slowdowns, due to
// the amortization of the cost of writing out the code maps" (§4.3).
func (k *Kernel) SysWriteSync(p *Process, path string, data []byte) error {
	err := k.SysWrite(p, path, data)
	if p == nil || !p.killed {
		k.core.AdvanceIdle(SyncLatencyCycles)
	}
	return err
}

// SysRename renames a file on behalf of p. It is the atomic commit of
// the temp-then-rename protocol; the rename itself is metadata-only
// and either fully happens or not at all. An installed fault injector
// may strike the commit: fail-before (destination never appears, temp
// survives as an orphan), fail-after (the rename is durable but the
// caller sees an error — the ambiguous outcome a recovery protocol
// must tolerate), or crash-mid (the renaming process dies before the
// rename applies). Faults match against the destination path.
func (k *Kernel) SysRename(p *Process, oldPath, newPath string) error {
	if p != nil && p.killed {
		return ErrCrashed
	}
	k.ExecKernel("sys_rename", writeBaseOps/2, 1)
	kind, _ := arbitrate(k.injectors, newPath, true)
	switch kind {
	case FaultRenameBefore:
		return ErrIO
	case FaultRenameCrash:
		k.Kill(p)
		return ErrCrashed
	case FaultRenameAfter:
		if err := k.disk.Rename(oldPath, newPath); err != nil {
			return err
		}
		return ErrIO
	}
	return k.disk.Rename(oldPath, newPath)
}
