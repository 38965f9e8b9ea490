package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/deepeye/deepeye/internal/load"
)

// clock is the schedule's time source; tests inject a virtual one.
type clock interface {
	Now() time.Time
	// SleepUntil returns once t has passed (at once if it already has).
	SleepUntil(ctx context.Context, t time.Time) error
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// SleepUntil blocks the thread in nanosleep, which wakes within the
// kernel's timer slack (~50µs). A Go timer can wake up to a millisecond
// late while the process is otherwise idle, and that would show up as
// generator lag on every op. Sleeps are at most one schedule interval.
func (wallClock) SleepUntil(ctx context.Context, t time.Time) error {
	for d := time.Until(t); d > 0 && ctx.Err() == nil; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
	return ctx.Err()
}

// prepared is one op ready to send: its payload is built before its due
// time, so generating it never delays the send.
type prepared struct {
	kind load.OpKind
	send func() bool // reports whether the response passed every check
}

// sample is one op's timeline. In the open loop latency runs from due
// (when the schedule wanted the op sent), so time an op spent waiting
// for a free connection behind a stalled one counts against it.
type sample struct {
	kind            load.OpKind
	due, sent, done time.Time
	ok              bool
	unsent          bool // still unsent at the drain deadline: a failure
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }
func (s sample) sendLag() time.Duration { return s.sent.Sub(s.due) }

// openLoop runs n ops on a fixed schedule: op i is due at
// start + i·interval whatever happened to the ops before it. At most
// inflight ops are outstanding; an op that comes due while every worker
// is busy is sent as soon as one frees up, never dropped, so a stall
// shows as latency on every op queued behind it. Ops still unsent at
// deadline are marked unsent instead of being sent arbitrarily late.
func openLoop(ctx context.Context, clk clock, start time.Time, interval time.Duration, n, inflight int,
	deadline time.Time, prep func(i int) prepared) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range inflight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				p := prep(i)
				due := start.Add(time.Duration(i) * interval)
				_ = clk.SleepUntil(ctx, due) // a cancelled ctx is checked below
				s := sample{kind: p.kind, due: due, sent: clk.Now()}
				if s.sent.After(deadline) || ctx.Err() != nil {
					s.done, s.unsent = s.sent, true
				} else {
					s.ok = p.send()
					s.done = clk.Now()
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs ops [first, first+n) back to back on inflight
// connections and returns them; latency is from send. A fixed op count,
// rather than a fixed time, gives every run the same work — including
// how far appends grow the datasets — however fast the machine is. No
// op starts after deadline.
func closedLoop(ctx context.Context, clk clock, first, n, inflight int, deadline time.Time,
	prep func(i int) prepared) []sample {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []sample
		wg   sync.WaitGroup
	)
	next.Store(int64(first))
	for range inflight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && clk.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= first+n {
					return
				}
				p := prep(i)
				s := sample{kind: p.kind, sent: clk.Now()}
				s.due = s.sent
				s.ok = p.send()
				s.done = clk.Now()
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// capacityChunks is how many equal runs of completions capacity splits
// the closed loop into.
const capacityChunks = 5

// capacity is the median completion rate over capacityChunks equal runs
// of completions from start: a stretch of slow machine time slows one
// chunk, not the median.
func capacity(samples []sample, start time.Time) float64 {
	done := make([]time.Time, len(samples))
	for i, s := range samples {
		done[i] = s.done
	}
	sort.Slice(done, func(a, b int) bool { return done[a].Before(done[b]) })
	per := len(done) / capacityChunks
	if per == 0 {
		return float64(len(done)) / done[len(done)-1].Sub(start).Seconds()
	}
	rates := make([]float64, capacityChunks)
	from := start
	for c := range rates {
		to := done[(c+1)*per-1]
		rates[c] = float64(per) / to.Sub(from).Seconds()
		from = to
	}
	return median(rates)
}
