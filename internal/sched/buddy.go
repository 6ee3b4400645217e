package sched

import (
	"fmt"

	"repro/internal/fifo"
)

// buddy is a classic buddy allocator over a power-of-two array of nodes,
// used by the dynamic space-sharing policy to hand out contiguous
// power-of-two processor blocks (the allocation discipline of the iPSC/860
// class of machines the paper's introduction cites). Deterministic: the
// lowest-addressed suitable block is always chosen.
type buddy struct {
	size  int              // total nodes, power of two
	free  []fifo.Ring[int] // by order: ascending block starts
	order map[int]int      // allocated block start -> order
}

// orderOf returns log2(size) for power-of-two sizes.
func orderOf(size int) int {
	o := 0
	for v := size; v > 1; v >>= 1 {
		o++
	}
	return o
}

func newBuddy(size int) *buddy {
	if size < 1 || size&(size-1) != 0 {
		panic(fmt.Sprintf("sched: buddy size %d not a power of two", size))
	}
	b := &buddy{size: size, free: make([]fifo.Ring[int], orderOf(size)+1), order: make(map[int]int)}
	b.free[orderOf(size)].Push(0)
	return b
}

// largest reports the size of the biggest free block (0 when full).
func (b *buddy) largest() int {
	for o := orderOf(b.size); o >= 0; o-- {
		if b.free[o].Len() > 0 {
			return 1 << o
		}
	}
	return 0
}

// freeNodes reports the total free capacity.
func (b *buddy) freeNodes() int {
	total := 0
	for o := range b.free {
		total += b.free[o].Len() << o
	}
	return total
}

// alloc takes a block of the given power-of-two size, splitting larger
// blocks as needed; it returns the block's first node and whether the
// allocation succeeded.
func (b *buddy) alloc(size int) (int, bool) {
	if size < 1 || size&(size-1) != 0 || size > b.size {
		panic(fmt.Sprintf("sched: buddy alloc %d", size))
	}
	want := orderOf(size)
	// Find the smallest order >= want with a free block.
	from := -1
	for o := want; o <= orderOf(b.size); o++ {
		if b.free[o].Len() > 0 {
			from = o
			break
		}
	}
	if from < 0 {
		return 0, false
	}
	start := b.free[from].Pop()
	// Split down to the wanted order, keeping the low half each time.
	for o := from; o > want; o-- {
		half := 1 << (o - 1)
		b.insertFree(o-1, start+half)
	}
	b.order[start] = want
	return start, true
}

// release returns a previously allocated block and merges buddies.
func (b *buddy) release(start int) {
	o, ok := b.order[start]
	if !ok {
		panic(fmt.Sprintf("sched: buddy release of unallocated block %d", start))
	}
	delete(b.order, start)
	for o < orderOf(b.size) {
		buddyStart := start ^ (1 << o)
		if !b.removeFree(o, buddyStart) {
			break
		}
		if buddyStart < start {
			start = buddyStart
		}
		o++
	}
	b.insertFree(o, start)
}

func (b *buddy) insertFree(o, start int) {
	blocks := &b.free[o]
	i := 0
	for i < blocks.Len() && blocks.At(i) < start {
		i++
	}
	blocks.Insert(i, start)
}

func (b *buddy) removeFree(o, start int) bool {
	return fifo.Delete(&b.free[o], start)
}
