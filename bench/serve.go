package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// startStub runs the protected upstream inside the driver: it reads the
// replayed body and answers "200 ok", so the daemon's proxy leg does real
// loopback I/O against the cheapest possible application.
func startStub() (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte("ok"))
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}

// target is what the load generator sends and what it expects back.
type target struct {
	wire []wireRequest
	want []int // expected status per pooled request; nil accepts only 200
	keys []uint32
}

func (t *target) expect(i int) int {
	if t.want == nil {
		return http.StatusOK
	}
	return t.want[i]
}

// tally counts every response the driver has received from one daemon, by
// status, plus the failures; /-/statz must agree with it at the end.
type tally struct {
	mu           sync.Mutex
	ok, blocked  int64 // 200s and 403s that matched the oracle
	failed       int64
	firstFailure string
}

func (t *tally) add(ok, blocked, failed int64, first string) {
	t.mu.Lock()
	t.ok += ok
	t.blocked += blocked
	t.failed += failed
	if t.firstFailure == "" {
		t.firstFailure = first
	}
	t.mu.Unlock()
}

// sample is one completed request: when it finished and how long it took
// (closed loop: from the write; open loop: from its due time).
type sample struct {
	end, lat, lag int64 // ns; end is relative to the phase start
}

// connResult is what one connection's loop hands back.
type connResult struct {
	samples             []sample
	ok, blocked, failed int64
	firstFailure        string
	nextIndex           int
}

// exchange sends pooled request i with caller key k on conn and checks
// the status against the oracle.
func exchange(conn net.Conn, br *bufio.Reader, buf *[]byte, t *target, i int, k uint32, res *connResult) error {
	*buf = t.wire[i].appendTo((*buf)[:0], k)
	if _, err := conn.Write(*buf); err != nil {
		return err
	}
	status, err := readResponse(br)
	if err != nil {
		return err
	}
	switch {
	case status != t.expect(i):
		res.failed++
		if res.firstFailure == "" {
			res.firstFailure = fmt.Sprintf("request %d (%.120q) answered %d, oracle expects %d", i, t.wire[i].head, status, t.expect(i))
		}
	case status == http.StatusForbidden:
		res.blocked++
	default:
		res.ok++
	}
	return nil
}

// runLoad drives addr with conns keep-alive connections for dur. With
// rate == 0 it is a closed loop: each connection sends its next request
// when the previous response has been read. With rate > 0 it is an open
// loop at rate requests/s: request n is due at n/rate, is sent no earlier,
// and is timed from its due time, so a stall is charged to every request
// queued behind it. Connection c sends pooled requests start+c,
// start+c+conns, ... and the matching caller keys; sample times are
// relative to begin. It returns all samples ordered per connection and the
// index the next phase should start at.
func runLoad(addr string, t *target, conns, start int, begin time.Time, dur time.Duration, rate float64, tl *tally) ([]sample, int, error) {
	results := make([]connResult, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs[c] = err
				return
			}
			defer conn.Close()
			_ = conn.SetDeadline(begin.Add(dur + 30*time.Second))
			br := bufio.NewReaderSize(conn, 16<<10)
			buf := make([]byte, 0, 16<<10)
			n := start + c
			for {
				var due time.Time
				sent := time.Now()
				if rate > 0 {
					due = begin.Add(time.Duration(float64(n-start) / rate * float64(time.Second)))
					if wait := due.Sub(sent); wait > 0 {
						time.Sleep(wait)
						sent = time.Now()
					}
				} else {
					due = sent
				}
				if sent.Sub(begin) >= dur {
					break
				}
				if err := exchange(conn, br, &buf, t, n%len(t.wire), t.keys[n%len(t.keys)], res); err != nil {
					errs[c] = fmt.Errorf("request %d: %w", n%len(t.wire), err)
					res.failed++
					break
				}
				end := time.Now()
				res.samples = append(res.samples, sample{
					end: int64(end.Sub(begin)), lat: int64(end.Sub(due)), lag: int64(sent.Sub(due)),
				})
				n += conns
			}
			res.nextIndex = n
		}(c)
	}
	wg.Wait()
	var all []sample
	next := start
	var firstErr error
	for c := range results {
		r := &results[c]
		first := r.firstFailure
		if errs[c] != nil && first == "" {
			first = errs[c].Error()
		}
		tl.add(r.ok, r.blocked, r.failed, first)
		all = append(all, r.samples...)
		if r.nextIndex > next {
			next = r.nextIndex
		}
		if errs[c] != nil && firstErr == nil {
			firstErr = errs[c]
		}
	}
	return all, next, firstErr
}

// firstProxied200 polls the daemon's data port with a query-less GET until
// the stub's 200 comes back through it; the elapsed time since the exec is
// the daemon's set-up time as a caller experiences it.
func firstProxied200(d *daemon, tl *tally) error {
	probe := []byte("GET /bench/ready HTTP/1.1\r\nHost: bench.local\r\n" + clientKeyHdr + ": c0\r\n\r\n")
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, err := func() (int, error) {
			conn, err := net.DialTimeout("tcp", d.data, time.Second)
			if err != nil {
				return 0, err
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Write(probe); err != nil {
				return 0, err
			}
			return readResponse(bufio.NewReader(conn))
		}()
		if err == nil && status == http.StatusOK {
			tl.add(1, 0, 0, "")
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("last answer was status %d", status)
			}
			return fmt.Errorf("bench: no proxied 200 from psigened within 30s: %w\n%s", err, d.output())
		}
		time.Sleep(time.Millisecond)
	}
}
