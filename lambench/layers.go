package main

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"lam/internal/telemetry"
)

// The per-layer split is measured from outside the program: handler
// wrappers time each replica's and the gateway's ServeHTTP, the
// replicas' own span rings (GET /trace/recent) give the admission,
// coalesce and predict spans, and /metrics counters give work done.
// Every request of a traced phase carries a client-minted trace ID, so
// the timings of one request at each layer are joined by it.

// tracePoller keeps every trace the replicas' rings hold while it runs.
// The rings keep the last 256 traces, so it polls often enough that
// none scroll out unseen at the benchmark's request rates.
type tracePoller struct {
	urls []string
	c    *http.Client
	mu   sync.Mutex
	recs map[string]telemetry.Record
	stop chan struct{}
	done chan struct{}
}

func startTracePoller(urls []string, every time.Duration) *tracePoller {
	p := &tracePoller{
		urls: urls,
		c:    &http.Client{Timeout: 5 * time.Second},
		recs: map[string]telemetry.Record{},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				p.poll()
				return
			case <-t.C:
				p.poll()
			}
		}
	}()
	return p
}

func (p *tracePoller) poll() {
	for _, u := range p.urls {
		resp, err := p.c.Get(u + "/trace/recent")
		if err != nil {
			continue // a missed poll only thins the sample
		}
		var body struct {
			Traces []telemetry.Record `json:"traces"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		p.mu.Lock()
		for _, r := range body.Traces {
			p.recs[r.Name+"/"+r.TraceID] = r
		}
		p.mu.Unlock()
	}
}

// finish stops polling after one last poll and returns every trace
// seen, keyed by name + "/" + trace ID.
func (p *tracePoller) finish() map[string]telemetry.Record {
	close(p.stop)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recs
}

// spanDur sums the durations of a record's spans with the given name.
func spanDur(r telemetry.Record, name string) (time.Duration, bool) {
	var d int64
	found := false
	for _, s := range r.Spans {
		if s.Name == name {
			d += s.DurNs
			found = true
		}
	}
	return time.Duration(d), found
}

// pathSplit is one traced phase's /predict path, request by request:
// the client round trip and each layer's self time.
type pathSplit struct {
	joined    int
	rtt       durations // client send to response read
	http      durations // round trip minus the gateway handler
	gwSelf    durations // gateway handler minus replica handler: peek + hop
	handler   durations // replica ServeHTTP
	wire      durations // replica handler minus admission and predict spans
	admission durations
	predict   durations // the predict span: coalesce wait + scoring
	coalesce  durations
}

// joinPath joins each successful traced request's timings at the
// client, the gateway, the replica and the replica's spans.
func joinPath(ss []sample, gw, rep []handlerRec, traces map[string]telemetry.Record) pathSplit {
	byTrace := func(recs []handlerRec) map[string]time.Duration {
		m := make(map[string]time.Duration, len(recs))
		for _, r := range recs {
			if r.path == "/predict" && r.trace != "" {
				m[r.trace] = r.dur
			}
		}
		return m
	}
	gwT, repT := byTrace(gw), byTrace(rep)
	var p pathSplit
	for i := range ss {
		s := &ss[i]
		if !s.ok() || s.trace == "" {
			continue
		}
		g, ok1 := gwT[s.trace]
		h, ok2 := repT[s.trace]
		tr, ok3 := traces["predict/"+s.trace]
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		adm, _ := spanDur(tr, "admission")
		pred, _ := spanDur(tr, "predict")
		rtt := s.done.Sub(s.sent)
		p.joined++
		p.rtt = append(p.rtt, rtt)
		p.http = append(p.http, rtt-g)
		p.gwSelf = append(p.gwSelf, g-h)
		p.handler = append(p.handler, h)
		p.wire = append(p.wire, h-adm-pred)
		p.admission = append(p.admission, adm)
		p.predict = append(p.predict, pred)
		if co, ok := spanDur(tr, "coalesce"); ok {
			p.coalesce = append(p.coalesce, co)
		}
	}
	return p
}

func (p *pathSplit) add(q pathSplit) {
	p.joined += q.joined
	p.rtt = append(p.rtt, q.rtt...)
	p.http = append(p.http, q.http...)
	p.gwSelf = append(p.gwSelf, q.gwSelf...)
	p.handler = append(p.handler, q.handler...)
	p.wire = append(p.wire, q.wire...)
	p.admission = append(p.admission, q.admission...)
	p.predict = append(p.predict, q.predict...)
	p.coalesce = append(p.coalesce, q.coalesce...)
}

// selfSum is the sum of the layers' median self times along the path.
func (p pathSplit) selfSum() time.Duration {
	return p.http.quantile(0.5) + p.gwSelf.quantile(0.5) + p.wire.quantile(0.5) +
		p.admission.quantile(0.5) + p.predict.quantile(0.5)
}

// counterDelta is the change of a metric family's summed samples
// between two scrapes.
func counterDelta(before, after *telemetry.Exposition, family string) float64 {
	return familySum(after, family) - familySum(before, family)
}

func familySum(e *telemetry.Exposition, family string) float64 {
	if e == nil {
		return 0
	}
	f := e.Family(family)
	if f == nil {
		return 0
	}
	t := 0.0
	for _, s := range f.Samples {
		t += s.Value
	}
	return t
}
