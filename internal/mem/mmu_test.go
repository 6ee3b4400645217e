package mem

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestClassString(t *testing.T) {
	if ClassData.String() != "data" || ClassBuffer.String() != "buffer" {
		t.Error("class names wrong")
	}
	if Class(9).String() != "Class(9)" {
		t.Error("unknown class rendering")
	}
}

func TestTryAllocBasics(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, 0, 1000)
	if !m.TryAlloc(600, ClassData) {
		t.Fatal("first alloc should fit")
	}
	if m.Used() != 600 || m.Free() != 400 {
		t.Fatalf("used=%d free=%d", m.Used(), m.Free())
	}
	if m.TryAlloc(500, ClassBuffer) {
		t.Fatal("oversized alloc should fail")
	}
	if !m.TryAlloc(0, ClassData) {
		t.Fatal("zero alloc should trivially succeed")
	}
	m.FreeBytes(600)
	if m.Used() != 0 {
		t.Fatalf("used=%d after free", m.Used())
	}
	st := m.Stats()
	if st.Peak != 600 || st.Allocs != 1 || st.Frees != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesData != 600 || st.BytesBuffer != 0 {
		t.Errorf("byte classes = %+v", st)
	}
}

func TestAllocBlocksUntilFree(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, 3, 1000)
	if !m.TryAlloc(900, ClassData) {
		t.Fatal("setup alloc failed")
	}
	var gotAt sim.Time = -1
	k.Spawn("blocked", func(p *sim.Proc) {
		m.Alloc(p, 500, ClassBuffer)
		gotAt = p.Now()
	})
	k.AfterFunc(100, func() { m.FreeBytes(900) })
	k.Run()
	if gotAt != 100 {
		t.Errorf("blocked alloc completed at %v, want 100", gotAt)
	}
	st := m.Stats()
	if st.BlockedAllocs != 1 {
		t.Errorf("BlockedAllocs = %d", st.BlockedAllocs)
	}
	if st.BlockedTime != 100 {
		t.Errorf("BlockedTime = %v", st.BlockedTime)
	}
	if m.Used() != 500 {
		t.Errorf("used = %d, want 500", m.Used())
	}
}

func TestFIFOOrderAmongWaiters(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, 0, 1000)
	m.TryAlloc(1000, ClassData)
	var order []string
	spawnAlloc := func(name string, bytes int64) {
		k.Spawn(name, func(p *sim.Proc) {
			m.Alloc(p, bytes, ClassData)
			order = append(order, name)
		})
	}
	spawnAlloc("big", 800)   // queued first
	spawnAlloc("small", 100) // must wait behind big even though it would fit sooner
	k.AfterFunc(10, func() { m.FreeBytes(1000) })
	k.Run()
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Fatalf("order = %v, want [big small]", order)
	}
}

func TestTryAllocYieldsToWaiters(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, 0, 1000)
	m.TryAlloc(1000, ClassData)
	k.Spawn("waiter", func(p *sim.Proc) {
		m.Alloc(p, 200, ClassData)
	})
	k.AfterFunc(5, func() {
		// 300 bytes free but waiter is queued: TryAlloc must refuse so the
		// waiter is served first.
		m.FreeBytes(100)
		if m.Waiting() != 1 {
			t.Error("waiter should still be queued (100 < 200 free)")
		}
		if m.TryAlloc(50, ClassData) {
			t.Error("TryAlloc must fail while a waiter is queued")
		}
	})
	k.AfterFunc(10, func() { m.FreeBytes(200) })
	k.Run()
	if m.Waiting() != 0 {
		t.Errorf("Waiting = %d at end", m.Waiting())
	}
}

func TestPartialFreeAdmitsWhenEnough(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, 0, 1000)
	m.TryAlloc(1000, ClassData)
	done := false
	k.Spawn("w", func(p *sim.Proc) {
		m.Alloc(p, 600, ClassBuffer)
		done = true
	})
	k.AfterFunc(10, func() { m.FreeBytes(300) }) // not enough
	k.AfterFunc(20, func() { m.FreeBytes(300) }) // now 600 free
	k.Run()
	if !done {
		t.Fatal("waiter never admitted")
	}
	if k.Now() != 20 {
		t.Errorf("admitted at %v, want 20", k.Now())
	}
}

func TestMultipleWaitersAdmittedTogether(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, 0, 1000)
	m.TryAlloc(1000, ClassData)
	count := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *sim.Proc) {
			m.Alloc(p, 100, ClassData)
			count++
		})
	}
	k.AfterFunc(10, func() { m.FreeBytes(1000) })
	k.Run()
	if count != 4 {
		t.Fatalf("admitted %d of 4", count)
	}
	if m.Used() != 400 {
		t.Errorf("used = %d, want 400", m.Used())
	}
}

func TestOverFreePanics(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, 0, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.FreeBytes(1)
}

func TestOversizeAllocPanics(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, 0, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Run")
		}
	}()
	k.Spawn("huge", func(p *sim.Proc) {
		m.Alloc(p, 200, ClassData)
	})
	k.Run()
}

func TestNegativeOperationsPanic(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, 0, 100)
	for name, fn := range map[string]func(){
		"TryAlloc": func() { m.TryAlloc(-1, ClassData) },
		"Free":     func() { m.FreeBytes(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(-1) should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewKernel(1), 0, 0)
}

// TestAccountingInvariant: for arbitrary interleavings of allocations and
// frees, used never exceeds capacity, never goes negative, and ends at the
// net outstanding amount.
func TestAccountingInvariant(t *testing.T) {
	f := func(sizes []uint16, seed int64) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 60 {
			sizes = sizes[:60]
		}
		k := sim.NewKernel(seed)
		m := New(k, 0, 64<<10)
		rng := rand.New(rand.NewSource(seed))
		var outstanding int64
		ok := true
		for i, s := range sizes {
			bytes := int64(s%8192) + 1
			hold := sim.Time(rng.Intn(200) + 1)
			start := sim.Time(rng.Intn(100))
			class := ClassData
			if i%2 == 0 {
				class = ClassBuffer
			}
			outstanding += 0 // every alloc is eventually freed below
			k.Spawn("p", func(p *sim.Proc) {
				p.Sleep(start)
				m.Alloc(p, bytes, class)
				if m.Used() > m.Capacity() || m.Used() < 0 {
					ok = false
				}
				p.Sleep(hold)
				m.FreeBytes(bytes)
			})
		}
		k.Run()
		k.Shutdown()
		if m.Used() != outstanding {
			return false
		}
		st := m.Stats()
		if st.Allocs != st.Frees {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

// TestNoStarvationUnderChurn: with continuous small alloc/free churn, a large
// request eventually gets through thanks to FIFO ordering.
func TestNoStarvationUnderChurn(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, 0, 1000)
	bigDone := false
	// Churners: repeatedly grab and release 300 bytes.
	for i := 0; i < 3; i++ {
		k.Spawn("churn", func(p *sim.Proc) {
			for j := 0; j < 50; j++ {
				m.Alloc(p, 300, ClassBuffer)
				p.Sleep(7)
				m.FreeBytes(300)
				p.Sleep(1)
			}
		})
	}
	k.Spawn("big", func(p *sim.Proc) {
		p.Sleep(20) // arrive mid-churn
		m.Alloc(p, 900, ClassData)
		bigDone = true
		m.FreeBytes(900)
	})
	k.Run()
	k.Shutdown()
	if !bigDone {
		t.Fatal("large request starved")
	}
}

func TestPendingBytesAndOldestWaiter(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, 0, 1000)
	m.TryAlloc(1000, ClassData)
	if m.PendingBytes() != 0 || m.OldestWaiter() != "" {
		t.Fatal("fresh queue should be empty")
	}
	k.Spawn("first-waiter", func(p *sim.Proc) { m.Alloc(p, 400, ClassData) })
	k.Spawn("second-waiter", func(p *sim.Proc) { m.Alloc(p, 300, ClassBuffer) })
	k.AfterFunc(10, func() {
		if m.PendingBytes() != 700 {
			t.Errorf("pending = %d, want 700", m.PendingBytes())
		}
		head := m.OldestWaiter()
		if !strings.Contains(head, "first-waiter") || !strings.Contains(head, "400B") {
			t.Errorf("head = %q", head)
		}
	})
	k.AfterFunc(20, func() { m.FreeBytes(1000) })
	k.Run()
	if m.PendingBytes() != 0 {
		t.Errorf("pending after drain = %d", m.PendingBytes())
	}
}
