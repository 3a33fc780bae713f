package main

// Tracing from outside the program: spans are recorded around the calls
// into each layer by the benchmark's own code — an http.RoundTripper
// installed as the federation transport's base (net.call spans), the
// existing portal and node event hooks (portal.* and skynode.step spans),
// and the benchmark's client calls (request spans). Spans stay in memory
// and are written out when the run ends.

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skyquery/internal/nettrace"
	"skyquery/internal/skynode"
	"skyquery/internal/soap"
)

// netCall is one HTTP exchange between two federation members. Times are
// nanoseconds since the tracer's origin.
type netCall struct {
	From, To, Link, Action, URL string
	Start, Headers, End         int64
	Sent, Recv                  int64
}

// event is one timestamped portal or node hook call.
type event struct {
	T                  int64
	Node, Kind, Detail string // Node is empty for portal events
}

type tracer struct {
	origin time.Time
	on     atomic.Bool
	next   http.RoundTripper
	keys   map[string]string // host:port -> "portal" or node key

	mu     sync.Mutex
	calls  []*netCall
	events []event
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), next: nettrace.SharedTransport(), keys: map[string]string{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.origin)) }

// learn maps the federation's endpoints to member names: the portal,
// and each node by its NodeURLs key ("SDSS" or "SDSS/3").
func (t *tracer) learn(portalURL string, nodeURLs map[string]string) {
	add := func(raw, key string) {
		if u, err := url.Parse(raw); err == nil {
			t.keys[u.Host] = key
		}
	}
	add(portalURL, "portal")
	for k, u := range nodeURLs {
		add(u, k)
	}
}

func (t *tracer) portalEvent(kind, detail string) {
	if !t.on.Load() {
		return
	}
	ts := t.now()
	t.mu.Lock()
	t.events = append(t.events, event{T: ts, Kind: kind, Detail: detail})
	t.mu.Unlock()
}

func (t *tracer) nodeEvent(node, kind, detail string) {
	if !t.on.Load() {
		return
	}
	ts := t.now()
	t.mu.Lock()
	t.events = append(t.events, event{T: ts, Node: node, Kind: kind, Detail: detail})
	t.mu.Unlock()
}

// RoundTrip records the exchange: start, response headers, and body EOF
// (or close), with the bytes each way. The caller is identified by the
// server address its request context carries: a portal or node call is
// made under the context of the request it is serving.
func (t *tracer) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.on.Load() {
		return t.next.RoundTrip(req)
	}
	from := "client"
	if a, ok := req.Context().Value(http.LocalAddrContextKey).(net.Addr); ok {
		if k, ok := t.keys[a.String()]; ok {
			from = k
		}
	}
	to, ok := t.keys[req.URL.Host]
	if !ok {
		to = req.URL.Host
	}
	c := &netCall{
		From: from, To: to, Link: linkOf(from, to),
		Action: strings.Trim(req.Header.Get("SOAPAction"), `"`),
		URL:    req.URL.String(), Sent: req.ContentLength, Start: t.now(),
	}
	resp, err := t.next.RoundTrip(req)
	ts := t.now()
	t.mu.Lock()
	c.Headers, c.End = ts, ts
	t.calls = append(t.calls, c)
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	resp.Body = &tracedBody{rc: resp.Body, t: t, c: c}
	return resp, nil
}

func linkOf(from, to string) string {
	switch {
	case from == "client":
		return "client_portal"
	case from == "portal" || to == "portal":
		return "portal_node"
	default:
		return "node_node"
	}
}

// tracedBody counts response bytes and stamps the call's end at EOF or
// close, whichever comes first.
type tracedBody struct {
	rc   io.ReadCloser
	t    *tracer
	c    *netCall
	n    int64
	done bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.finish()
	return b.rc.Close()
}

func (b *tracedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	ts := b.t.now()
	b.t.mu.Lock()
	b.c.End, b.c.Recv = ts, b.n
	b.t.mu.Unlock()
}

// snapshot copies the recorded calls and events.
func (t *tracer) snapshot() ([]netCall, []event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls := make([]netCall, len(t.calls))
	for i, c := range t.calls {
		calls[i] = *c
	}
	return calls, append([]event(nil), t.events...)
}

// ---- interval sets ----

type span struct{ a, b int64 }

// spans is a sorted set of disjoint intervals.
type spans []span

func unionOf(xs []span) spans {
	s := make([]span, 0, len(xs))
	for _, x := range xs {
		if x.b > x.a {
			s = append(s, x)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].a < s[j].a })
	var out spans
	for _, x := range s {
		if n := len(out); n > 0 && x.a <= out[n-1].b {
			if x.b > out[n-1].b {
				out[n-1].b = x.b
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func (s spans) or(o spans) spans { return unionOf(append(append([]span(nil), s...), o...)) }

func (s spans) minus(o spans) spans {
	var out spans
	for _, x := range s {
		cur := x
		for _, y := range o {
			if y.b <= cur.a || y.a >= cur.b {
				continue
			}
			if y.a > cur.a {
				out = append(out, span{cur.a, y.a})
			}
			cur.a = y.b
			if cur.a >= cur.b {
				break
			}
		}
		if cur.b > cur.a {
			out = append(out, cur)
		}
	}
	return out
}

func (s spans) total() int64 {
	var n int64
	for _, x := range s {
		n += x.b - x.a
	}
	return n
}

// ---- attribution ----

// breakdown attributes one request's wall time. Every instant of the
// request is given to exactly one of, in this order: a node's own work
// (inside a handler, outside its outbound calls), the portal's own work
// (inside the client's call, outside the portal's outbound calls), the
// wire (client, codec and transfer: inside a call but outside its
// callee's handler), or unattributed.
type breakdown struct {
	wall, portal, skynode, wire, unattributed int64
	steps                                     map[string]int64 // seed/extend/dropout/scan/stats: Σ node self time
	links                                     map[string]*linkTotal
	portalNodeCalls                           int
}

type linkTotal struct{ calls, bytes, ns int64 }

// handler is the interval a callee spent serving one call. final marks
// a handler whose end event follows its last written page (a chain
// step); a scan or probe reports before its result goes out.
type handler struct {
	a, b    int64
	archive string
	final   bool
}

// stepSpan is a node's step, for the span file.
type stepSpan struct {
	Node, Archive, Step string
	Start, End, Self    int64
}

// attribute breaks down one request [t0, t1]. kinds maps an archive to
// its step kind in this query's plan (seed/extend/dropout); archives
// missing from it ran a pass-through scan.
func attribute(t0, t1 int64, calls []netCall, events []event, kinds map[string]string) (breakdown, []stepSpan) {
	bd := breakdown{wall: t1 - t0, steps: map[string]int64{}, links: map[string]*linkTotal{}}
	var in []*netCall
	for i := range calls {
		if c := &calls[i]; c.Start >= t0 && c.Start < t1 {
			in = append(in, c)
			lt := bd.links[c.Link]
			if lt == nil {
				lt = &linkTotal{}
				bd.links[c.Link] = lt
			}
			lt.calls++
			lt.bytes += c.Sent + c.Recv
			lt.ns += c.End - c.Start
			if c.From == "portal" && c.To != "portal" {
				bd.portalNodeCalls++
			}
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Start < in[j].Start })

	// Node event times per archive and kind, in order.
	evs := map[string][]int64{}
	for _, e := range events {
		if e.Node != "" && e.T >= t0 && e.T <= t1 {
			evs[e.Node+"|"+e.Kind] = append(evs[e.Node+"|"+e.Kind], e.T)
		}
	}

	// Pair each node call with its handler events, first in first out per
	// archive and action (shards of one archive report the same name).
	handlers := map[*netCall]handler{}
	used := map[string]int{}
	take := func(key string, after int64) (int64, bool) {
		ts := evs[key]
		for used[key] < len(ts) {
			v := ts[used[key]]
			used[key]++
			if v >= after {
				return v, true
			}
		}
		return 0, false
	}
	for _, c := range in {
		if c.To == "portal" || c.From == "client" {
			continue
		}
		arch := archiveOf(c.To)
		switch c.Action {
		case skynode.ActionCrossMatch:
			a, ok1 := take(arch+"|xmatch.recv", c.Start)
			b, ok2 := take(arch+"|xmatch.return", a)
			if ok1 && ok2 {
				handlers[c] = handler{a: a, b: b, archive: arch, final: true}
			}
		case skynode.ActionQuery:
			if b, ok := take(arch+"|query", c.Start); ok {
				handlers[c] = handler{a: c.Start, b: b, archive: arch}
			}
		case skynode.ActionStats:
			if b, ok := take(arch+"|stats.summary", c.Start); ok {
				handlers[c] = handler{a: c.Start, b: b, archive: arch}
			}
		}
	}
	// A call's child interval runs from its start until its callee's
	// chain step ended, or else until its body ended. What the caller does
	// after its callee's step finished is the caller's: on a streamed
	// chain the caller reads the stream's end only after it has processed
	// the last page, so body EOF would hide that work.
	childIv := func(c *netCall) span {
		if h, ok := handlers[c]; ok && h.final && h.b < c.End {
			return span{c.Start, h.b}
		}
		return span{c.Start, c.End}
	}
	childrenOf := func(member string, within span) spans {
		var out []span
		for _, c := range in {
			if c.From == member && c.Start >= within.a && c.Start < within.b {
				out = append(out, childIv(c))
			}
		}
		return unionOf(out)
	}

	var nodeSelf []span
	var steps []stepSpan
	for _, c := range in {
		h, ok := handlers[c]
		if !ok {
			continue
		}
		own := spans{{h.a, h.b}}.minus(childrenOf(c.To, span{h.a, h.b}))
		nodeSelf = append(nodeSelf, own...)
		kind := kinds[h.archive]
		if kind == "" {
			kind = "scan"
		}
		if c.Action == skynode.ActionStats {
			kind = "stats"
		}
		bd.steps[kind] += own.total()
		steps = append(steps, stepSpan{Node: c.To, Archive: h.archive, Step: kind, Start: h.a, End: h.b, Self: own.total()})
	}
	nodeSet := unionOf(nodeSelf)

	// The portal's own time is the client's call minus the portal's
	// outbound calls.
	var clientCalls []span
	for _, c := range in {
		if c.From == "client" {
			clientCalls = append(clientCalls, span{c.Start, c.End})
		}
	}
	portalSet := unionOf(clientCalls).minus(childrenOf("portal", span{t0, t1}))

	// The wire: the client outside its call, each call outside its
	// callee's handler, and chunk fetches whole. A call to a member whose
	// handler could not be paired stays unattributed.
	wire := spans{{t0, t1}}.minus(unionOf(clientCalls))
	var inCalls []span
	for _, c := range in {
		if h, ok := handlers[c]; ok {
			inCalls = append(inCalls, spans{{c.Start, c.End}}.minus(spans{{h.a, h.b}})...)
		} else if c.Action == soap.FetchAction {
			inCalls = append(inCalls, span{c.Start, c.End})
		}
	}
	wire = wire.or(unionOf(inCalls))

	clip := func(s spans) spans { return s.minus(spans{{-1 << 62, t0}, {t1, 1 << 62}}) }
	nodeSet = clip(nodeSet)
	portalSet = clip(portalSet).minus(nodeSet)
	wire = clip(wire).minus(nodeSet).minus(portalSet)
	bd.skynode, bd.portal, bd.wire = nodeSet.total(), portalSet.total(), wire.total()
	bd.unattributed = bd.wall - bd.skynode - bd.portal - bd.wire
	return bd, steps
}

func archiveOf(key string) string {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i]
	}
	return key
}

// writeSpans writes every span of the traced queries as JSON lines.
func writeSpans(path string, t *tracer, reqs []sample, calls []netCall, events []event, steps []stepSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range reqs {
		enc.Encode(map[string]interface{}{"span": "request", "id": i, "query": s.q, "start_ns": t.at(s.start), "first_row_ns": t.at(s.first), "end_ns": t.at(s.end), "rows": s.rows})
	}
	for _, c := range calls {
		enc.Encode(map[string]interface{}{"span": "net.call", "link": c.Link, "from": c.From, "to": c.To, "action": c.Action, "url": c.URL,
			"start_ns": c.Start, "headers_ns": c.Headers, "end_ns": c.End, "bytes_sent": c.Sent, "bytes_recv": c.Recv})
	}
	for _, s := range steps {
		enc.Encode(map[string]interface{}{"span": "skynode.step", "node": s.Node, "archive": s.Archive, "step": s.Step, "start_ns": s.Start, "end_ns": s.End, "self_ns": s.Self})
	}
	for _, e := range events {
		name := "portal." + e.Kind
		if e.Node != "" {
			name = "skynode." + e.Kind
		}
		enc.Encode(map[string]interface{}{"span": name, "node": e.Node, "at_ns": e.T, "detail": e.Detail})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
