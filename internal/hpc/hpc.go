// Package hpc models hardware performance counters (HPCs): programmable
// event counters that raise a non-maskable interrupt (NMI) when a
// configured number of events has occurred. OProfile, and hence VIProf,
// is driven entirely by this mechanism (paper §3): the kernel driver
// programs each counter with the user's event and count threshold, and
// every overflow delivers one sample.
package hpc

import "fmt"

// Event identifies a countable hardware event. The names mirror the
// Pentium 4 events the paper profiles in Figure 1.
type Event uint8

// Supported events.
const (
	// GlobalPowerEvents counts non-halted clock cycles; sampling on it
	// approximates a time profile (the paper's "time" column).
	GlobalPowerEvents Event = iota
	// BSQCacheReference counts L2 data cache misses (the paper's
	// "Dmiss" column).
	BSQCacheReference
	// ITLBMiss and DTLBMiss are extra events beyond the paper's two,
	// exercised by tests and available to users.
	ITLBMiss
	DTLBMiss
	// InstrRetired counts retired instructions.
	InstrRetired
	numEvents
)

// NumEvents is the number of defined events.
const NumEvents = int(numEvents)

// String returns the OProfile-style event mnemonic.
func (e Event) String() string {
	switch e {
	case GlobalPowerEvents:
		return "GLOBAL_POWER_EVENTS"
	case BSQCacheReference:
		return "BSQ_CACHE_REFERENCE"
	case ITLBMiss:
		return "ITLB_REFERENCE"
	case DTLBMiss:
		return "DTLB_REFERENCE"
	case InstrRetired:
		return "INSTR_RETIRED"
	default:
		return fmt.Sprintf("EVENT_%d", uint8(e))
	}
}

// Counter is one programmable performance counter. It counts down from
// the period; crossing zero is an overflow. Hardware resets the counter
// to the period after each overflow, so a burst of n events can produce
// several overflows.
type Counter struct {
	Event   Event
	Period  uint64 // events per sample; 0 disables the counter
	Enabled bool

	remaining uint64
	total     uint64 // lifetime events observed while enabled
	overflows uint64
}

// NewCounter returns a counter armed with the given event and period.
func NewCounter(ev Event, period uint64) (*Counter, error) {
	if period == 0 {
		return nil, fmt.Errorf("hpc: zero period for %s", ev)
	}
	if int(ev) >= NumEvents {
		return nil, fmt.Errorf("hpc: unknown event %d", ev)
	}
	return &Counter{Event: ev, Period: period, Enabled: true, remaining: period}, nil
}

// Add records n occurrences of the counter's event and returns how many
// overflows they caused (usually 0 or 1; more if n spans multiple
// periods).
func (c *Counter) Add(n uint64) int {
	if !c.Enabled || c.Period == 0 || n == 0 {
		return 0
	}
	c.total += n
	if n < c.remaining {
		c.remaining -= n
		return 0
	}
	n -= c.remaining
	ovf := 1 + int(n/c.Period)
	c.remaining = c.Period - n%c.Period
	c.overflows += uint64(ovf)
	return ovf
}

// Reset rearms the counter at a full period.
func (c *Counter) Reset() { c.remaining = c.Period }

// Total returns the lifetime event count.
func (c *Counter) Total() uint64 { return c.total }

// Overflows returns the lifetime overflow count.
func (c *Counter) Overflows() uint64 { return c.overflows }

// Bank is the set of counters on one core. The simulated CPU ticks the
// bank once per micro-op; overflow notifications are delivered through
// the OnOverflow callback (the NMI line).
type Bank struct {
	counters [NumEvents]*Counter
	armed    []*Counter // dense list of enabled counters, for fast ticking
	// OnOverflow is invoked once per overflow with the overflowing
	// counter. It corresponds to asserting the NMI line; the CPU decides
	// how and when to deliver it.
	OnOverflow func(*Counter)
}

// NewBank returns an empty counter bank.
func NewBank() *Bank { return &Bank{} }

// Program installs a counter for the event, replacing any previous one.
func (b *Bank) Program(ev Event, period uint64) (*Counter, error) {
	c, err := NewCounter(ev, period)
	if err != nil {
		return nil, err
	}
	b.counters[ev] = c
	b.rebuild()
	return c, nil
}

// Remove disables and removes the counter for the event.
func (b *Bank) Remove(ev Event) {
	if int(ev) < NumEvents {
		b.counters[ev] = nil
		b.rebuild()
	}
}

// Counter returns the counter programmed for ev, if any.
func (b *Bank) Counter(ev Event) (*Counter, bool) {
	if int(ev) >= NumEvents || b.counters[ev] == nil {
		return nil, false
	}
	return b.counters[ev], true
}

// Armed returns the enabled counters in event order.
func (b *Bank) Armed() []*Counter { return b.armed }

func (b *Bank) rebuild() {
	b.armed = b.armed[:0]
	for _, c := range b.counters {
		if c != nil && c.Enabled {
			b.armed = append(b.armed, c)
		}
	}
}

// NoLimit is returned by NextOverflowIn when no overflow can occur.
const NoLimit = ^uint64(0)

// NextOverflowIn returns the event-horizon headroom for ev: the largest
// n such that recording n occurrences of ev is guaranteed NOT to
// overflow the counter programmed for it. It returns NoLimit when no
// enabled counter watches the event. The batched execution engine uses
// this to size bulk runs that provably deliver no NMI, so per-event
// ticking can be replaced by one bulk Tick with identical counter
// state.
func (b *Bank) NextOverflowIn(ev Event) uint64 {
	c := b.counters[ev]
	if c == nil || !c.Enabled || c.Period == 0 {
		return NoLimit
	}
	return c.remaining - 1
}

// Tick records n occurrences of ev and fires OnOverflow for each
// overflow caused.
func (b *Bank) Tick(ev Event, n uint64) {
	c := b.counters[ev]
	if c == nil {
		return
	}
	for ovf := c.Add(n); ovf > 0; ovf-- {
		if b.OnOverflow != nil {
			b.OnOverflow(c)
		}
	}
}
