package oprofile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"viprof/internal/record"
)

// Stats records. Six writers persist their self-counters as one framed
// record of key=value lines: the daemon, the agent, the recovery and
// retention passes, the fleet collector and every fleet sender. Each
// record's schema is one []Stat table binding every key to the field
// that holds it, so a key is named once for both directions:
// AppendStats writes the table in order and DecodeStats fills the same
// table back. Every stats file is read by one rule, ReadStats: the last
// intact record wins. Every table ends with clean, and a missing or
// damaged record is the writer's crash signal.

// Stat binds one key of a stats record to its field. Ptr is a *uint64
// or *int (written in decimal), a *bool (written 0 or 1), or a
// *map[string]uint64 or *map[string]int: a family, written as one
// Key+name line per entry in sorted name order.
type Stat struct {
	Key string
	Ptr any
}

// AppendStats appends tab's key=value lines to buf in table order.
func AppendStats(buf []byte, tab []Stat) []byte {
	for _, s := range tab {
		switch p := s.Ptr.(type) {
		case *uint64:
			buf = fmt.Appendf(buf, "%s=%d\n", s.Key, *p)
		case *int:
			buf = fmt.Appendf(buf, "%s=%d\n", s.Key, *p)
		case *bool:
			v := 0
			if *p {
				v = 1
			}
			buf = fmt.Appendf(buf, "%s=%d\n", s.Key, v)
		case *map[string]uint64:
			buf = appendFamily(buf, s.Key, *p)
		case *map[string]int:
			buf = appendFamily(buf, s.Key, *p)
		default:
			panic(fmt.Sprintf("oprofile: stat %q has unsupported field type %T", s.Key, s.Ptr))
		}
	}
	return buf
}

func appendFamily[V uint64 | int](buf []byte, prefix string, m map[string]V) []byte {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		buf = fmt.Appendf(buf, "%s%s=%d\n", prefix, name, m[name])
	}
	return buf
}

// ReadStats fills tab from a stats file's last intact record and
// reports whether one survived and decoded. Writers append a record
// per write, so a later record supersedes earlier ones and a torn
// tail, which salvage drops, leaves the last record that landed.
func ReadStats(data []byte, tab []Stat) bool {
	recs, _ := record.Scan(data)
	return len(recs) > 0 && DecodeStats(recs[len(recs)-1], tab)
}

// DecodeStats fills tab from one record payload and reports whether the
// record can be trusted. Every value must be an unsigned decimal and
// every non-blank line a key=value pair; one malformed line rejects the
// whole record. Unknown keys are ignored. Families start empty and take
// every key under their prefix except <name>.cpu<N> keys, the daemon's
// write-only per-CPU lines.
func DecodeStats(payload []byte, tab []Stat) bool {
	for _, s := range tab {
		switch p := s.Ptr.(type) {
		case *map[string]uint64:
			*p = make(map[string]uint64)
		case *map[string]int:
			*p = make(map[string]int)
		}
	}
	for _, line := range strings.Split(string(payload), "\n") {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return false
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return false
		}
		// A scalar takes only its own key, a family any key under its
		// prefix.
		for _, s := range tab {
			if name, ok := strings.CutPrefix(k, s.Key); ok && (name == "" || s.family() && !isCPUKey(k)) {
				s.set(name, n)
				break
			}
		}
	}
	return true
}

func (s Stat) family() bool {
	switch s.Ptr.(type) {
	case *map[string]uint64, *map[string]int:
		return true
	}
	return false
}

// set stores n for the key s.Key+name; name is empty unless s is a
// family.
func (s Stat) set(name string, n uint64) {
	switch p := s.Ptr.(type) {
	case *uint64:
		*p = n
	case *int:
		*p = int(n)
	case *bool:
		*p = n != 0
	case *map[string]uint64:
		(*p)[name] = n
	case *map[string]int:
		(*p)[name] = int(n)
	}
}

// isCPUKey reports whether k has the <name>.cpu<N> shape.
func isCPUKey(k string) bool {
	i := strings.LastIndex(k, ".cpu")
	return i >= 0 && i+len(".cpu") < len(k) && strings.Trim(k[i+len(".cpu"):], "0123456789") == ""
}
