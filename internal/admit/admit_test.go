package admit

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vats/internal/obs"
)

func TestFastPathNoWait(t *testing.T) {
	c := New(Config{Slots: 2, QueueCap: 8})
	defer c.Close()
	w, err := c.Admit(Normal)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if w != 0 {
		t.Fatalf("fast path should report zero wait, got %v", w)
	}
	c.Release()
	st := c.Stats()
	if st.Admitted != 1 || st.FreeSlots != 2 {
		t.Fatalf("stats after release: %+v", st)
	}
}

func TestQueueFIFOAndPriority(t *testing.T) {
	c := New(Config{Slots: 1, QueueCap: 16})
	defer c.Close()
	if _, err := c.Admit(High); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	start := func(name string, cl Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Admit(cl); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			c.Release()
		}()
	}
	// Enqueue in a known order, waiting until each is queued before
	// adding the next so FIFO position is deterministic.
	waitQueued := func(n int) {
		for i := 0; i < 2000; i++ {
			if c.Stats().Waiting == n {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("queue never reached depth %d", n)
	}
	start("low1", Low)
	waitQueued(1)
	start("norm1", Normal)
	waitQueued(2)
	start("norm2", Normal)
	waitQueued(3)
	start("high1", High)
	waitQueued(4)

	c.Release() // free the held slot; grants cascade as each finishes
	wg.Wait()
	want := []string{"high1", "norm1", "norm2", "low1"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestShedPerClassThresholds(t *testing.T) {
	// QueueCap 10 → allowed depth: low 4, normal 7, high 10.
	c := New(Config{Slots: 1, QueueCap: 10})
	defer c.Close()
	if _, err := c.Admit(High); err != nil { // occupy the slot
		t.Fatal(err)
	}
	fill := func(n int, cl Class) {
		for i := 0; i < n; i++ {
			go c.Admit(cl) //nolint:errcheck
		}
		deadline := time.Now().Add(2 * time.Second)
		for c.Stats().Waiting < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	fill(4, High)
	if _, err := c.Admit(Low); err != ErrShed {
		t.Fatalf("low at depth 4: err=%v, want ErrShed", err)
	}
	if c.Stats().Shed[Low] != 1 {
		t.Fatalf("shed count: %+v", c.Stats().Shed)
	}
	fill(7, High)
	if _, err := c.Admit(Normal); err != ErrShed {
		t.Fatalf("normal at depth 7: err=%v, want ErrShed", err)
	}
	fill(10, High)
	if _, err := c.Admit(High); err != ErrShed {
		t.Fatalf("high at depth 10: err=%v, want ErrShed", err)
	}
}

func TestDisableShedNeverSheds(t *testing.T) {
	c := New(Config{Slots: 1, QueueCap: 2, DisableShed: true})
	defer c.Close()
	if _, err := c.Admit(Low); err != nil {
		t.Fatal(err)
	}
	const n = 50 // far past QueueCap
	var wg sync.WaitGroup
	var sheds atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Admit(Low)
			if err == ErrShed {
				sheds.Add(1)
				return
			}
			if err == nil {
				c.Release()
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Waiting < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Release()
	wg.Wait()
	if got := sheds.Load(); got != 0 {
		t.Fatalf("%d sheds with DisableShed", got)
	}
}

func TestFeedbackShrinksAndRecovers(t *testing.T) {
	met := obs.NewNetMetrics(obs.New(), ClassNames()...)
	c := New(Config{
		Slots:     1,
		QueueCap:  64,
		TargetP99: time.Millisecond,
		Window:    10 * time.Millisecond,
		Metrics:   met,
	})
	defer c.Close()
	// Pump work through a single slot with 3ms service time: admitted
	// queue waits (~N·3ms) far exceed the 1ms target, so the controller
	// must shrink the effective capacity.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.Admit(High)
				if err == nil {
					time.Sleep(3 * time.Millisecond) // service slower than target
					c.Release()
				}
			}
		}()
	}
	deadline := time.Now().Add(3 * time.Second)
	for c.Stats().EffectiveCap >= 64 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	shrunk := c.Stats().EffectiveCap
	close(stop)
	wg.Wait()
	if shrunk >= 64 {
		t.Fatalf("feedback never shrank capacity: effCap=%d", shrunk)
	}
	// Idle windows (p99 below target) grow capacity back.
	deadline = time.Now().Add(3 * time.Second)
	for c.Stats().EffectiveCap <= shrunk && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Stats().EffectiveCap; got <= shrunk {
		t.Fatalf("capacity never recovered: %d (shrunk %d)", got, shrunk)
	}
}

func TestCloseReleasesWaiters(t *testing.T) {
	c := New(Config{Slots: 1, QueueCap: 8})
	if _, err := c.Admit(High); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Admit(Normal)
			errs <- err
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Waiting < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != ErrClosed {
			t.Fatalf("waiter err=%v, want ErrClosed", err)
		}
	}
	if _, err := c.Admit(High); err != ErrClosed {
		t.Fatalf("post-close admit err=%v", err)
	}
}

func TestWindowP99(t *testing.T) {
	var w window
	for i := 0; i < 99; i++ {
		w.observe(100 * time.Microsecond)
	}
	w.observe(10 * time.Millisecond)
	p := w.p99()
	if p < 100*time.Microsecond || p > 10*time.Millisecond {
		t.Fatalf("p99=%v outside [100µs,10ms]", p)
	}
	var z window
	if z.p99() != 0 {
		t.Fatal("empty window p99 should be 0")
	}
}

// TestWindowP99Pinned pins the window's p99 estimate on seeded
// exponential waits (interpolated, clamped to the maximum, single
// observation, sub-microsecond) to values recorded from the original
// interpolation code, within 1ns.
func TestWindowP99Pinned(t *testing.T) {
	for _, tc := range []struct{ seed, n, scaleUs, wantNs int64 }{
		{1, 1, 100, 58729},
		{2, 10, 100, 191670},
		{3, 100, 1000, 7184000},
		{4, 1000, 50, 246588},
		{5, 5000, 2000, 11449060},
		{6, 99, 10, 59474},
		{7, 20000, 300, 1768149},
		{8, 7, 100000, 373675703},
		{9, 3000, 1, 5735},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		var w window
		for i := int64(0); i < tc.n; i++ {
			w.observe(time.Duration(rng.ExpFloat64() * float64(tc.scaleUs) * float64(time.Microsecond)))
		}
		if got := int64(w.p99()); got < tc.wantNs-1 || got > tc.wantNs+1 {
			t.Errorf("seed %d: p99 = %dns, want %dns", tc.seed, got, tc.wantNs)
		}
	}
}

// TestAdmitStressRace hammers Admit/Release from many goroutines with
// mixed classes and a concurrent Close, then checks conservation
// invariants. Run under -race this is the admission queue's storm test.
func TestAdmitStressRace(t *testing.T) {
	met := obs.NewNetMetrics(obs.New(), ClassNames()...)
	c := New(Config{
		Slots:     4,
		QueueCap:  32,
		TargetP99: 500 * time.Microsecond,
		Window:    5 * time.Millisecond,
		Metrics:   met,
	})
	const workers = 32
	var wg sync.WaitGroup
	var admitted, shed atomic.Int64
	stop := make(chan struct{})
	for i := 0; i < workers; i++ {
		cl := Class(i % int(NumClasses))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.Admit(cl)
				switch err {
				case nil:
					admitted.Add(1)
					c.Release()
				case ErrShed:
					shed.Add(1)
				case ErrClosed:
					return
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	st := c.Stats()
	if st.Waiting != 0 {
		t.Fatalf("waiters left behind: %+v", st)
	}
	if st.FreeSlots != 4 {
		t.Fatalf("slots not conserved: %+v", st)
	}
	if st.Admitted != admitted.Load() {
		t.Fatalf("admitted %d, controller says %d", admitted.Load(), st.Admitted)
	}
	if st.ShedTotal() != shed.Load() {
		t.Fatalf("shed %d, controller says %d", shed.Load(), st.ShedTotal())
	}
	c.Close()
	c.Close() // idempotent
}
