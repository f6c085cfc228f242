package hpc

import (
	"testing"
	"testing/quick"
)

func TestCounterBasic(t *testing.T) {
	c, err := NewCounter(GlobalPowerEvents, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ovf := c.Add(99); ovf != 0 {
		t.Errorf("99 events overflowed %d times", ovf)
	}
	if ovf := c.Add(1); ovf != 1 {
		t.Errorf("100th event overflowed %d times, want 1", ovf)
	}
	if ovf := c.Add(100); ovf != 1 {
		t.Errorf("next full period overflowed %d times, want 1", ovf)
	}
	if c.Total() != 200 || c.Overflows() != 2 {
		t.Errorf("totals = %d/%d, want 200/2", c.Total(), c.Overflows())
	}
}

func TestCounterMultiOverflow(t *testing.T) {
	c, _ := NewCounter(BSQCacheReference, 10)
	if ovf := c.Add(35); ovf != 3 {
		t.Errorf("35 events with period 10 overflowed %d times, want 3", ovf)
	}
	// remaining should be 10 - 5 = 5
	if ovf := c.Add(4); ovf != 0 {
		t.Errorf("4 more events overflowed %d", ovf)
	}
	if ovf := c.Add(1); ovf != 1 {
		t.Errorf("5th event overflowed %d, want 1", ovf)
	}
}

func TestCounterDisabledAndErrors(t *testing.T) {
	if _, err := NewCounter(GlobalPowerEvents, 0); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewCounter(Event(200), 10); err == nil {
		t.Error("unknown event accepted")
	}
	c, _ := NewCounter(GlobalPowerEvents, 10)
	c.Enabled = false
	if ovf := c.Add(100); ovf != 0 || c.Total() != 0 {
		t.Error("disabled counter counted")
	}
	c.Enabled = true
	c.Add(7)
	c.Reset()
	if ovf := c.Add(9); ovf != 0 {
		t.Error("Reset did not rearm full period")
	}
	if ovf := c.Add(1); ovf != 1 {
		t.Error("overflow after Reset miscounted")
	}
}

// Property: total overflows == floor(total events / period) for any
// sequence of Add sizes.
func TestOverflowArithmeticQuick(t *testing.T) {
	f := func(period uint16, adds []uint16) bool {
		p := uint64(period%1000) + 1
		c, err := NewCounter(GlobalPowerEvents, p)
		if err != nil {
			return false
		}
		var got int
		var total uint64
		for _, a := range adds {
			got += c.Add(uint64(a))
			total += uint64(a)
		}
		return uint64(got) == total/p && c.Total() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEventString(t *testing.T) {
	if GlobalPowerEvents.String() != "GLOBAL_POWER_EVENTS" {
		t.Error(GlobalPowerEvents.String())
	}
	if BSQCacheReference.String() != "BSQ_CACHE_REFERENCE" {
		t.Error(BSQCacheReference.String())
	}
	if Event(99).String() != "EVENT_99" {
		t.Error(Event(99).String())
	}
}

func TestBank(t *testing.T) {
	b := NewBank()
	var fired []Event
	b.OnOverflow = func(c *Counter) { fired = append(fired, c.Event) }

	if _, err := b.Program(GlobalPowerEvents, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Program(BSQCacheReference, 3); err != nil {
		t.Fatal(err)
	}
	if len(b.Armed()) != 2 {
		t.Fatalf("armed = %d", len(b.Armed()))
	}
	b.Tick(GlobalPowerEvents, 49)
	b.Tick(BSQCacheReference, 2)
	if len(fired) != 0 {
		t.Fatalf("premature overflow: %v", fired)
	}
	b.Tick(GlobalPowerEvents, 1)
	b.Tick(BSQCacheReference, 7) // 2+7=9 events, period 3 -> 9/3=3 total overflows
	wantCycles, wantMiss := 1, 3
	var gotCycles, gotMiss int
	for _, e := range fired {
		switch e {
		case GlobalPowerEvents:
			gotCycles++
		case BSQCacheReference:
			gotMiss++
		}
	}
	if gotCycles != wantCycles || gotMiss != wantMiss {
		t.Errorf("overflows = %d cycles, %d miss; want %d, %d", gotCycles, gotMiss, wantCycles, wantMiss)
	}

	// Ticking an unprogrammed event is a no-op.
	b.Tick(ITLBMiss, 1000)

	if c, ok := b.Counter(BSQCacheReference); !ok || c.Event != BSQCacheReference {
		t.Error("Counter lookup failed")
	}
	b.Remove(BSQCacheReference)
	if _, ok := b.Counter(BSQCacheReference); ok {
		t.Error("Counter survived Remove")
	}
	if len(b.Armed()) != 1 {
		t.Errorf("armed after remove = %d", len(b.Armed()))
	}
}

func TestBankReprogram(t *testing.T) {
	b := NewBank()
	c1, _ := b.Program(GlobalPowerEvents, 100)
	c1.Add(60)
	c2, _ := b.Program(GlobalPowerEvents, 100) // replace
	if c2 == c1 {
		t.Error("Program did not replace counter")
	}
	if c2.Total() != 0 {
		t.Error("replacement counter inherited state")
	}
}

// NextOverflowIn is the event horizon the core's batch captures at
// open: NoLimit for an unarmed event, period-1 on a fresh counter, zero
// once the counter is one event from overflow (the next op must then
// run precisely), and period-1 again after the overflow rearms it.
func TestNextOverflowIn(t *testing.T) {
	b := NewBank()
	if ops, w := b.NextOverflowIn(InstrRetired), b.NextOverflowIn(GlobalPowerEvents); ops != NoLimit || w != NoLimit {
		t.Errorf("empty bank headroom = (%d, %d), want NoLimit pair", ops, w)
	}
	b.Program(InstrRetired, 10)
	b.Program(GlobalPowerEvents, 25)
	if ops, w := b.NextOverflowIn(InstrRetired), b.NextOverflowIn(GlobalPowerEvents); ops != 9 || w != 24 {
		t.Errorf("headroom = (%d, %d), want (9, 24)", ops, w)
	}
	b.Tick(InstrRetired, 9)
	if ops := b.NextOverflowIn(InstrRetired); ops != 0 {
		t.Errorf("ops headroom = %d, want 0 one op before overflow", ops)
	}
	b.Tick(InstrRetired, 1) // overflow rearms at the full period
	if ops := b.NextOverflowIn(InstrRetired); ops != 9 {
		t.Errorf("ops headroom after rearm = %d, want 9", ops)
	}
}
