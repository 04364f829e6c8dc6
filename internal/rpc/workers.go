package rpc

import "sync"

// maxParked is how many idle workers a peer keeps. A worker that
// finishes a task while this many are parked exits instead.
const maxParked = 64

// workerSet is a peer's reusable goroutines: every handler, and every
// task its owner hands to Go, runs on one. A goroutine starts with a
// small stack and grows it by copying as its calls deepen; a parked
// worker keeps the stack it grew, so the next task starts on it.
type workerSet struct {
	mu sync.Mutex
	// parked holds one channel per parked worker, most recently parked
	// last. Go sends the worker exactly one task on it, close a nil.
	parked []chan func()
	closed bool
	// idle counts the workers parked or being woken by close, which
	// close waits out.
	idle sync.WaitGroup
}

// Go runs f on the most recently parked worker, or on a new one when
// none is parked. It never blocks and the set has no upper bound, so f
// may block or make nested calls without waiting for a free worker.
// After Close, f still runs, on a worker that exits when it returns.
func (p *Peer) Go(f func()) {
	s := &p.workers
	s.mu.Lock()
	if n := len(s.parked); n > 0 {
		next := s.parked[n-1]
		s.parked[n-1] = nil
		s.parked = s.parked[:n-1]
		s.mu.Unlock()
		next <- f
		return
	}
	s.mu.Unlock()
	go s.run(f)
}

// run is a worker's life: a task, then park for the next, until it is
// told to exit.
func (s *workerSet) run(f func()) {
	next := make(chan func(), 1) // Go's one send never waits
	for f != nil {
		f()
		f = s.park(next)
	}
}

// park waits for the worker's next task. It returns nil at once when
// the set is closed or already holds maxParked workers.
func (s *workerSet) park(next chan func()) func() {
	s.mu.Lock()
	if s.closed || len(s.parked) >= maxParked {
		s.mu.Unlock()
		return nil
	}
	s.parked = append(s.parked, next)
	s.idle.Add(1)
	s.mu.Unlock()
	f := <-next
	s.idle.Done()
	return f
}

// close wakes every parked worker with nil and waits until each has
// left its park. Workers busy with a task exit when it returns.
func (s *workerSet) close() {
	s.mu.Lock()
	s.closed = true
	parked := s.parked
	s.parked = nil
	s.mu.Unlock()
	for _, next := range parked {
		next <- nil
	}
	s.idle.Wait()
}
