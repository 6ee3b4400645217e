package fifo

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRingWraparoundAndGrowth interleaves pushes and pops so the head
// wraps around the buffer, and grows the buffer while it is wrapped; the
// ring must stay in push order throughout.
func TestRingWraparoundAndGrowth(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < round%5 && r.Len() > 0; i++ {
			if got := r.Pop(); got != want {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
			}
			want++
		}
		if r.Len() != next-want {
			t.Fatalf("round %d: Len = %d, want %d", round, r.Len(), next-want)
		}
		for i := 0; i < r.Len(); i++ {
			if got := r.At(i); got != want+i {
				t.Fatalf("round %d: At(%d) = %d, want %d", round, i, got, want+i)
			}
		}
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != want {
			t.Fatalf("drain: Pop = %d, want %d", got, want)
		}
		want++
	}
	if c := r.Cap(); c&(c-1) != 0 {
		t.Fatalf("Cap = %d, not a power of two", c)
	}
}

// TestRingInsertRemoveKeepOrder checks Insert and Remove at random
// positions against a slice model, with the ring wrapped.
func TestRingInsertRemoveKeepOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var r Ring[int]
	var model []int
	for i := 0; i < 2000; i++ {
		switch op := rng.Intn(4); {
		case op == 0 && len(model) > 0:
			j := rng.Intn(len(model))
			if got := r.Remove(j); got != model[j] {
				t.Fatalf("step %d: Remove(%d) = %d, want %d", i, j, got, model[j])
			}
			model = slices.Delete(model, j, j+1)
		case op == 1 && len(model) > 0:
			if got := r.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop = %d, want %d", i, got, model[0])
			}
			model = model[1:]
		default:
			j := rng.Intn(len(model) + 1)
			r.Insert(j, i)
			model = slices.Insert(model, j, i)
		}
		if r.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", i, r.Len(), len(model))
		}
		for j, v := range model {
			if got := r.At(j); got != v {
				t.Fatalf("step %d: At(%d) = %d, want %d", i, j, got, v)
			}
		}
	}
}

// TestRingClearsVacatedSlots: popped and removed slots are zeroed, so a
// drained queue pins nothing it held, and draining keeps the capacity.
func TestRingClearsVacatedSlots(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 6; i++ {
		v := i
		r.Push(&v)
	}
	r.Remove(2)
	for r.Len() > 0 {
		r.Pop()
	}
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d after drain, want 8", r.Cap())
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds %d after drain", i, *p)
		}
	}
}

// TestRingPopEmptyPanics: Pop and At on an empty ring panic rather than
// return a zero value that looks like an element.
func TestRingPopEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(r *Ring[int]){
		"Pop": func(r *Ring[int]) { r.Pop() },
		"At":  func(r *Ring[int]) { r.At(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty ring did not panic", name)
				}
			}()
			var r Ring[int]
			f(&r)
		}()
	}
}
