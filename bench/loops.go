package main

import (
	"context"
	"sync"
	"time"
)

// openLoop sends ops on their schedule regardless of how the system
// keeps up: a dispatcher releases each op at start+op.at to one of
// senders goroutines, and an op that finds every sender busy waits in
// the queue — that wait is part of its latency, since latency runs from
// the due time. op.lag records how late the dispatcher itself ran.
func openLoop(ctx context.Context, ops []*op, senders int, exec func(*op)) {
	queue := make(chan *op, len(ops)) // sized to the schedule: the dispatcher never blocks
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range queue {
				exec(o)
			}
		}()
	}
	start := time.Now()
	for _, o := range ops {
		o.due = start.Add(o.at)
		if d := time.Until(o.due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
			}
			t.Stop()
		}
		o.lag = time.Since(o.due)
		queue <- o
	}
	close(queue)
	wg.Wait()
}

// closedLoop runs clients goroutines that each send the next op of the
// stream as soon as their previous one completes, until d has passed.
// It returns the ops in stream order.
func closedLoop(ctx context.Context, clients int, d time.Duration, next func(i int) *op, exec func(*op)) []*op {
	return closedLoopUntil(ctx, clients, time.Now().Add(d), nil, next, exec)
}

// closedLoopUntil is closedLoop ending at the deadline or when stop
// closes, whichever comes first.
func closedLoopUntil(ctx context.Context, clients int, deadline time.Time, stop <-chan struct{}, next func(i int) *op, exec func(*op)) []*op {
	var (
		mu  sync.Mutex
		ops []*op
		wg  sync.WaitGroup
	)
	claim := func() *op {
		mu.Lock()
		defer mu.Unlock()
		if time.Now().After(deadline) || ctx.Err() != nil {
			return nil
		}
		select {
		case <-stop:
			return nil
		default:
		}
		o := next(len(ops))
		ops = append(ops, o)
		return o
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := claim(); o != nil; o = claim() {
				o.due = time.Now()
				exec(o)
			}
		}()
	}
	wg.Wait()
	return ops
}
