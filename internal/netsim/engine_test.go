package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.RunFor(time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", got)
	}
}

func TestEngineTieBrokenByScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	e.RunFor(time.Second)
	if !sort.IntsAreSorted(got) {
		t.Errorf("same-instant events fired out of schedule order: %v", got)
	}
}

func TestEngineRandomisedOrdering(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(3))
	var fired []time.Time
	for i := 0; i < 500; i++ {
		e.Schedule(time.Duration(r.Intn(1000))*time.Millisecond, func() {
			fired = append(fired, e.Now())
		})
	}
	e.RunFor(2 * time.Second)
	if len(fired) != 500 {
		t.Fatalf("fired %d events, want 500", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i].Before(fired[i-1]) {
			t.Fatalf("time went backwards at event %d", i)
		}
	}
}

func TestEngineRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.RunFor(3 * time.Second)
	if got := e.Elapsed(); got != 3*time.Second {
		t.Errorf("Elapsed = %v, want 3s", got)
	}
}

func TestEngineRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(2*time.Second, func() { fired = true })
	e.RunFor(time.Second)
	if fired {
		t.Error("event beyond the horizon fired")
	}
	e.RunFor(time.Second)
	if !fired {
		t.Error("event at the horizon did not fire")
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10*time.Millisecond, func() { fired = true })
	ev.Cancel()
	e.RunFor(time.Second)
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", e.Pending())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			e.Schedule(time.Millisecond, recurse)
		}
	}
	e.Schedule(time.Millisecond, recurse)
	e.RunFor(time.Second)
	if depth != 5 {
		t.Errorf("depth = %d, want 5", depth)
	}
	if got := e.Elapsed(); got != time.Second {
		t.Errorf("Elapsed = %v", got)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-time.Second, func() { fired = true })
	e.RunFor(0)
	if !fired {
		t.Error("negative-delay event did not fire immediately")
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	n := 0
	tk := e.NewTicker(100*time.Millisecond, func() { n++ })
	e.RunFor(time.Second)
	if n != 10 {
		t.Errorf("ticks = %d, want 10", n)
	}
	tk.Stop()
	e.RunFor(time.Second)
	if n != 10 {
		t.Errorf("ticks after Stop = %d, want 10", n)
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.NewTicker(10*time.Millisecond, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.RunFor(time.Second)
	if n != 3 {
		t.Errorf("ticks = %d, want 3", n)
	}
}

func TestTickerRejectsNonPositiveInterval(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Millisecond} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTicker(%v) did not panic", d)
				}
			}()
			NewEngine().NewTicker(d, func() {})
		}()
	}
}

// refTicker is the closure-per-firing ticker Ticker replaced: each
// firing schedules a fresh event through Schedule. The order test holds
// the owned-event Ticker to it.
type refTicker struct {
	eng      *Engine
	interval time.Duration
	fn       func()
	ev       *Event
	stopped  bool
}

func (t *refTicker) arm() {
	t.ev = t.eng.Schedule(t.interval, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

func (t *refTicker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

// tickerScenario runs tickers and one-shot events that collide at the
// same instants — including Stops issued from another event or ticker
// due at the very instant the stopped ticker is — and logs every firing.
func tickerScenario(newTicker func(e *Engine, d time.Duration, fn func()) interface{ Stop() }) []string {
	e := NewEngine()
	var log []string
	mark := func(name string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%v", name, e.Elapsed())) }
	}
	ms := time.Millisecond
	a := newTicker(e, 10*ms, mark("a"))
	newTicker(e, 5*ms, mark("b"))
	c := newTicker(e, 10*ms, mark("c"))
	e.At(Epoch.Add(10*ms), mark("at10"))
	e.At(Epoch.Add(20*ms), func() { mark("stop-c")(); c.Stop() })
	var d interface{ Stop() }
	e.At(Epoch.Add(30*ms), func() {
		mark("stop-a")()
		a.Stop()
		d = newTicker(e, 10*ms, mark("d"))
	})
	var f interface{ Stop() }
	f = newTicker(e, 15*ms, func() {
		mark("f")()
		if e.Elapsed() == 45*ms {
			d.Stop()
			f.Stop()
		}
	})
	e.Schedule(40*ms, mark("at40"))
	e.RunFor(100 * ms)
	return log
}

func TestTickerOrderMatchesClosureTicker(t *testing.T) {
	got := tickerScenario(func(e *Engine, d time.Duration, fn func()) interface{ Stop() } {
		return e.NewTicker(d, fn)
	})
	want := tickerScenario(func(e *Engine, d time.Duration, fn func()) interface{ Stop() } {
		rt := &refTicker{eng: e, interval: d, fn: fn}
		rt.arm()
		return rt
	})
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %s, want %s\n got %v\nwant %v", i, got[i], want[i], got, want)
		}
	}
	// The collisions the scenario is built around did happen: c was
	// stopped before its own 20 ms firing, d and f stopped at 45 ms.
	for _, absent := range []string{"c@20ms", "a@30ms", "d@50ms", "f@60ms"} {
		if slices.Contains(got, absent) {
			t.Errorf("%s fired after its Stop: %v", absent, got)
		}
	}
	if !slices.Contains(got, "d@40ms") || !slices.Contains(got, "f@45ms") {
		t.Errorf("scenario did not reach its 40-45 ms collisions: %v", got)
	}
}

// parkScenario drives one ticker through a seeded schedule of work that
// arrives from outside any event, between RunUntil calls, and returns
// the instants of the firings that found work. With park set the
// ticker parks on a firing that finds none and every arrival resumes
// it; without, it runs throughout and an idle firing does nothing. The
// schedule lands arrivals exactly on grid instants, spans idle gaps of
// many intervals, stops the ticker (and resumes the stopped one) and
// replaces it with a NewTicker, parked or not. A second ticker on a
// commensurate interval fires at the same instants; its firings are
// returned too. onGrid counts arrivals exactly on a grid instant that
// found no work pending.
func parkScenario(seed int64, park bool) (work, other []time.Duration, onGrid int) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	pending := 0
	var tk *Ticker
	var origin time.Duration
	var iv time.Duration
	start := func(interval time.Duration) {
		origin, iv = e.Elapsed(), interval
		tk = e.NewTicker(interval, func() {
			if pending == 0 {
				if park {
					tk.Park()
				}
				return
			}
			pending--
			work = append(work, e.Elapsed())
		})
	}
	start(10 * time.Millisecond)
	e.NewTicker(5*time.Millisecond, func() { other = append(other, e.Elapsed()) })
	for step := 0; step < 500; step++ {
		now := e.Elapsed()
		var next time.Duration
		switch rng.Intn(4) {
		case 0: // exactly on a later grid instant of the current ticker
			k := (now-origin)/iv + 1 + time.Duration(rng.Intn(4))
			next = origin + k*iv
		case 1: // a long idle gap
			next = now + time.Duration(5+rng.Intn(40))*iv + time.Duration(rng.Intn(int(iv)))
		default: // a short hop, possibly inside the same interval
			next = now + time.Duration(rng.Intn(int(2*iv)))
		}
		e.RunUntil(Epoch.Add(next))
		switch op := rng.Intn(20); {
		case op < 16:
			if pending == 0 && (next-origin)%iv == 0 {
				onGrid++
			}
			pending += 1 + rng.Intn(3)
			if park {
				tk.Resume()
			}
		case op < 18:
			tk.Stop()
			if park {
				tk.Resume() // must not revive a stopped ticker
			}
		default:
			tk.Stop()
			start(time.Duration(5+5*rng.Intn(3)) * time.Millisecond)
		}
	}
	e.RunFor(time.Second)
	return work, other, onGrid
}

// TestTickerParkResumeMatchesAlwaysOn holds a parking ticker to one that
// never parks: resumed from outside events, its working firings land on
// exactly the same instants.
func TestTickerParkResumeMatchesAlwaysOn(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got, gotOther, onGrid := parkScenario(seed, true)
		want, wantOther, _ := parkScenario(seed, false)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: parked ticker worked at %d instants, always-on at %d; first difference at %d\n got %v\nwant %v",
				seed, len(got), len(want), firstDiff(got, want), got, want)
		}
		if !slices.Equal(gotOther, wantOther) {
			t.Fatalf("seed %d: the second ticker's firings differ", seed)
		}
		if len(got) < 100 || onGrid == 0 {
			t.Fatalf("seed %d: scenario too thin: %d working firings, %d arrivals on a grid instant", seed, len(got), onGrid)
		}
	}
}

func firstDiff(a, b []time.Duration) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestTickerResumeInsideEventAtGridInstant pins the documented corner: a
// Resume from inside an event due at exactly a grid instant arms the
// next grid instant, not the current one. Park outside fn does nothing,
// and a Park and Resume within one firing leave the ticker running.
func TestTickerResumeInsideEventAtGridInstant(t *testing.T) {
	e := NewEngine()
	ms := time.Millisecond
	var fired []time.Duration
	var tk *Ticker
	parkNext := true
	tk = e.NewTicker(10*ms, func() {
		fired = append(fired, e.Elapsed())
		if parkNext {
			tk.Park()
		}
	})
	tk.Park() // not from fn: no effect
	e.At(Epoch.Add(30*ms), func() { parkNext = false; tk.Resume() })
	e.RunUntil(Epoch.Add(60 * ms))
	want := []time.Duration{10 * ms, 40 * ms, 50 * ms, 60 * ms}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}

	e = NewEngine()
	fired = nil
	tk = e.NewTicker(10*ms, func() {
		fired = append(fired, e.Elapsed())
		tk.Park()
		tk.Resume()
	})
	e.RunUntil(Epoch.Add(30 * ms))
	if want := []time.Duration{10 * ms, 20 * ms, 30 * ms}; !slices.Equal(fired, want) {
		t.Fatalf("park+resume in one firing: fired at %v, want %v", fired, want)
	}
	if n := e.Pending(); n != 1 {
		t.Fatalf("%d events pending, want the ticker's one", n)
	}
}

// TestTickerAllocatesNothing is the witness behind the owned event: a
// running ticker's fire-and-re-arm allocates nothing, nor does a park
// and resume, while a one-shot At pays exactly its Event.
func TestTickerAllocatesNothing(t *testing.T) {
	e := NewEngine()
	n := 0
	e.NewTicker(time.Microsecond, func() { n++ })
	if a := testing.AllocsPerRun(1000, func() { e.Step() }); a != 0 {
		t.Errorf("ticker fire + re-arm allocates %v, want 0", a)
	}
	if n == 0 {
		t.Fatal("ticker never fired")
	}

	e = NewEngine()
	var tk *Ticker
	tk = e.NewTicker(time.Microsecond, func() { n++; tk.Park() })
	e.Step()
	if a := testing.AllocsPerRun(1000, func() {
		e.RunFor(3 * time.Microsecond)
		tk.Resume()
	}); a != 0 {
		t.Errorf("ticker park + resume allocates %v, want 0", a)
	}
	if e.Pending() != 1 {
		t.Fatal("resumed ticker not pending")
	}

	e = NewEngine()
	fn := func() { n++ }
	if a := testing.AllocsPerRun(1000, func() {
		e.At(e.Now(), fn)
		e.Step()
	}); a != 1 {
		t.Errorf("At + fire allocates %v, want 1 (the Event)", a)
	}
}

func TestLinkSerializationAndLatency(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 8e6 /* 8 Mbit/s => 1 byte/µs */, 10*time.Millisecond)
	var delivered time.Time
	l.Send(1000, func() { delivered = e.Now() })
	e.RunFor(time.Second)
	want := Epoch.Add(time.Millisecond /* 1000B at 1B/µs */ + 10*time.Millisecond)
	if !delivered.Equal(want) {
		t.Errorf("delivered at %v, want %v", delivered.Sub(Epoch), want.Sub(Epoch))
	}
}

func TestLinkContention(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 8e6, 0)
	var times []time.Duration
	for i := 0; i < 3; i++ {
		l.Send(1000, func() { times = append(times, e.Elapsed()) })
	}
	e.RunFor(time.Second)
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("frame %d delivered at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestLinkInfiniteBandwidth(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 0, 5*time.Millisecond)
	var at time.Duration
	l.Send(1<<20, func() { at = e.Elapsed() })
	e.RunFor(time.Second)
	if at != 5*time.Millisecond {
		t.Errorf("delivered at %v, want 5ms (latency only)", at)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if got := e.Observe(100); got != 100 {
		t.Errorf("first sample = %v, want 100", got)
	}
	if got := e.Observe(0); got != 50 {
		t.Errorf("second sample = %v, want 50", got)
	}
	if got := e.Value(); got != 50 {
		t.Errorf("Value = %v", got)
	}
}

// The queue's pop order must be exactly (time, schedule order) — ties,
// cancellations and events scheduled from inside callbacks included.
func TestEngineOrderMatchesStableSort(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(7))
	type planned struct {
		at  time.Duration
		id  int
		off bool
	}
	var plan []planned
	var fired []int
	schedule := func(at time.Duration) *Event {
		id := len(plan)
		plan = append(plan, planned{at: at, id: id})
		return e.At(Epoch.Add(at), func() { fired = append(fired, id) })
	}
	var events []*Event
	for i := 0; i < 3000; i++ {
		events = append(events, schedule(time.Duration(r.Intn(200))*time.Millisecond))
	}
	for i := 0; i < 300; i++ {
		k := r.Intn(len(events))
		events[k].Cancel()
		plan[k].off = true
	}
	// Half-way through, a callback schedules more: some due at once (a
	// tie with already-queued events, ordered after them), some later.
	e.At(Epoch.Add(100*time.Millisecond), func() {
		for i := 0; i < 500; i++ {
			schedule(100*time.Millisecond + time.Duration(r.Intn(3))*50*time.Millisecond)
		}
	})
	e.RunFor(time.Second)

	sort.SliceStable(plan, func(i, j int) bool { return plan[i].at < plan[j].at })
	var want []int
	for _, p := range plan {
		if !p.off {
			want = append(want, p.id)
		}
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("event %d fired was #%d, want #%d", i, fired[i], want[i])
		}
	}
}
