package main

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/obs"
)

// spanLog is the obs.Tracer a traced run installs with ukc.WithTracer. It
// keeps every span the program emits, stamped with the emitting goroutine:
// the program's spans carry no parent links, and a span's parent is the
// innermost span of the same goroutine whose interval contains it (the
// solver runs sequentially on the serve worker that executes the request).
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

type span struct {
	name  string
	gid   uint64
	start time.Time
	dur   time.Duration
	self  time.Duration
	attrs []obs.Attr
}

func (l *spanLog) Span(name, _ string, start time.Time, dur time.Duration, attrs []obs.Attr) {
	g := goid()
	l.mu.Lock()
	l.spans = append(l.spans, span{name: name, gid: g, start: start, dur: dur, attrs: attrs})
	l.mu.Unlock()
}

// goid parses the current goroutine's ID from its stack header
// ("goroutine 123 [running]:"). Only traced runs pay for it.
func goid() uint64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _ := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

func (s span) attr(key string) int64 {
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}

// take returns the spans recorded so far, with self times filled in, and
// empties the log.
func (l *spanLog) take() []span {
	l.mu.Lock()
	spans := l.spans
	l.spans = nil
	l.mu.Unlock()
	sort.Slice(spans, func(a, b int) bool {
		x, y := spans[a], spans[b]
		if x.gid != y.gid {
			return x.gid < y.gid
		}
		if !x.start.Equal(y.start) {
			return x.start.Before(y.start)
		}
		return x.dur > y.dur
	})
	var stack []int
	for i := range spans {
		spans[i].self = spans[i].dur
		end := spans[i].start.Add(spans[i].dur)
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.gid == spans[i].gid && !end.After(top.start.Add(top.dur)) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			spans[stack[len(stack)-1]].self -= spans[i].dur
		}
		stack = append(stack, i)
	}
	return spans
}

// httpCount accumulates, for one client call, what its HTTP attempts cost:
// round trips, time from sending to the response body's close, and
// response bytes. It rides the call's context into countingTransport.
type httpCount struct {
	roundTrips int
	transport  time.Duration
	bytes      int64
}

type httpCountKey struct{}

func withHTTPCount(ctx context.Context, hc *httpCount) context.Context {
	return context.WithValue(ctx, httpCountKey{}, hc)
}

// countingTransport times the HTTP layer from outside the client: the
// client reads each response body to the end before closing it, so the span
// from RoundTrip to Close covers the request on the wire, the gateway and
// the response download.
type countingTransport struct{ base http.RoundTripper }

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	hc, _ := req.Context().Value(httpCountKey{}).(*httpCount)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if hc == nil {
		return resp, err
	}
	hc.roundTrips++
	if err != nil {
		hc.transport += time.Since(start)
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, hc: hc, start: start}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	hc     *httpCount
	start  time.Time
	closed bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.hc.bytes += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	if !b.closed {
		b.closed = true
		b.hc.transport += time.Since(b.start)
	}
	return b.ReadCloser.Close()
}
