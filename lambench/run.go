package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"time"

	"lam/internal/telemetry"
)

const (
	// setupRuns set-ups per run; setup_s is their median. The first
	// boots the fleet the phases drive; the others, each closed as soon
	// as it is ready, are spread over the rounds, so that a slow stretch
	// of a shared host lands on few of them.
	setupRuns = 13
	// warmup is driven through each serving phase, and discarded,
	// before the first round.
	warmup = 500 * time.Millisecond
	// batchRows is the batch-256 request size.
	batchRows = 256
	// openRate is single-open's arrival rate, about half of what two
	// closed-loop clients reach on single rows through the gateway on a
	// 2-core host.
	openRate = 500.0
	// sloLimit is single-open's latency limit: a request that fails, is
	// shed or answers later than this after it was due misses.
	sloLimit = 5 * time.Millisecond
	// reconcileTolerance is how far the sum of the traced layers'
	// median self times may sit from the untraced round-trip median,
	// as a share of the latter.
	reconcileTolerance = 0.25
	// maxWrongNotes bounds the wrong answers listed individually.
	maxWrongNotes = 10
)

// phaseShare is the share of --seconds each of the four main phases
// measures, defaultsShare drift-default's.
const (
	defaultsShare = 1.0 / 16
	phaseShare    = (1 - defaultsShare) / 4
)

// roundLen is the target length of one round: run interleaves the
// phases, giving each one slice per round, so every metric samples the
// whole run and a slow stretch of a shared host lands on all phases
// alike instead of on whichever phase ran then.
const roundLen = 4 * time.Second

// phase is one traffic shape. slice drives it for d, with every layer's
// timing on when traced; finish checks the answers and reports.
type phase interface {
	slice(ctx context.Context, traced bool, d time.Duration) error
	finish(ctx context.Context, rep *report) error
}

func run(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	var totals []float64
	steps := map[string][]float64{}
	timedSetup := func() (*fleet, *trained, error) {
		runtime.GC()
		f, tr, st, err := setup(ctx, cfg.root, workloads[cfg.workload], cfg.seed, cfg.boot)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, st.total().Seconds())
		steps["dataset"] = append(steps["dataset"], ms(st.dataset))
		steps["train"] = append(steps["train"], ms(st.train))
		steps["publish"] = append(steps["publish"], ms(st.publish))
		steps["boot"] = append(steps["boot"], ms(st.boot))
		steps["warm"] = append(steps["warm"], ms(st.warm))
		return f, tr, nil
	}
	f, tr, err := timedSetup()
	if err != nil {
		return nil, err
	}
	defer f.close()

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rep.endToEnd("heap_mb", "MiB", float64(mem.HeapAlloc)/(1<<20))

	type named struct {
		name  string
		share float64
		p     phase
	}
	var phases []named
	add := func(name string, share float64, build func() (phase, error)) error {
		if !cfg.runs(name) {
			return nil
		}
		p, err := build()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		phases = append(phases, named{name, share, p})
		return nil
	}
	for _, err := range []error{
		add("batch-256", phaseShare, func() (phase, error) { return newBatchPhase(ctx, cfg, f, tr) }),
		add("single-open", phaseShare, func() (phase, error) { return newSinglePhase(ctx, cfg, f, tr) }),
		add("drift-adapt", phaseShare, func() (phase, error) { return newAdaptPhase(cfg, f) }),
		add("drift-default", defaultsShare, func() (phase, error) { return newDefaultsPhase(cfg, f) }),
		add("learn", phaseShare, func() (phase, error) { return newLearnPhase(cfg) }),
	} {
		if err != nil {
			return nil, err
		}
	}
	rounds := max(1, int(math.Round(float64(cfg.seconds)/float64(roundLen))))
	setupsPerRound := (setupRuns - 1 + rounds - 1) / rounds
	for r := 0; r < rounds; r++ {
		for i := 0; i < setupsPerRound; i++ {
			g, _, err := timedSetup()
			if err != nil {
				return nil, err
			}
			g.close()
		}
		for _, ph := range phases {
			// Each slice starts from a collected heap, so one phase's
			// garbage is not collected on another's time.
			runtime.GC()
			d := time.Duration(ph.share * float64(cfg.seconds) / float64(rounds))
			if !cfg.traced {
				if err := ph.p.slice(ctx, false, d); err != nil {
					return nil, fmt.Errorf("%s: %w", ph.name, err)
				}
				continue
			}
			// A traced run spends half of each slice untraced: the
			// baseline its tracing overhead and reconciliation are
			// judged against.
			for _, traced := range []bool{false, true} {
				runtime.GC()
				if err := ph.p.slice(ctx, traced, d/2); err != nil {
					return nil, fmt.Errorf("%s: %w", ph.name, err)
				}
			}
		}
	}
	for _, ph := range phases {
		if err := ph.p.finish(ctx, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", ph.name, err)
		}
	}
	rep.endToEnd("setup_s", "s", median(totals))
	for _, s := range []string{"dataset", "train", "publish", "boot", "warm"} {
		rep.layer("setup."+s+"_ms", "ms", median(steps[s]))
	}
	rep.note("set-up: %d set-ups, median %.1f ms (range %.1f-%.1f ms)", len(totals), 1e3*median(totals), 1e3*slices.Min(totals), 1e3*slices.Max(totals))
	rep.note("%d rounds of %v", rounds, (cfg.seconds / time.Duration(rounds)).Round(time.Millisecond))
	return rep, nil
}

// count adds requests to the run's operation counts. Transport errors
// and non-shed error statuses are failed operations, and fail the run.
func (r *report) count(what string, c counts) {
	r.attempted += c.sent
	r.failed += c.failed
	if c.failed > 0 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %d of %d requests failed, the first with %s", what, c.failed, c.sent, c.firstFailure))
	}
}

// tallyInto adds a phase's requests to the run's operation counts and
// reports them as layer metrics.
func tallyInto(rep *report, prefix string, c counts) {
	rep.count(strings.TrimSuffix(prefix, "."), c)
	rep.layer(prefix+"bench.sent", "count", float64(c.sent))
	rep.layer(prefix+"bench.ok", "count", float64(c.ok))
	rep.layer(prefix+"bench.failed", "count", float64(c.failed))
	rep.layer(prefix+"bench.shed", "count", float64(c.shed))
}

// scrapes reads every replica's and the gateway's /metrics.
type scrapes struct {
	reps []*telemetry.Exposition
	gw   *telemetry.Exposition
	took durations
}

func scrapeFleet(f *fleet) (scrapes, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	var s scrapes
	for _, r := range f.reps {
		t0 := time.Now()
		e, err := scrape(c, r.url+"/metrics")
		if err != nil {
			return s, err
		}
		s.took = append(s.took, time.Since(t0))
		s.reps = append(s.reps, e)
	}
	var err error
	s.gw, err = scrape(c, f.gwURL+"/metrics")
	return s, err
}

// fleetCounters accumulates the fleet's counter changes over traced
// slices.
type fleetCounters struct {
	shed, retries, spills, flushes, flushRows float64
	retrainsStarted, retrainsPublished        float64
	queuePeak                                 float64
	scrapeTook                                durations
}

func (c *fleetCounters) add(before, after scrapes) {
	rep := func(family string) float64 {
		t := 0.0
		for i := range before.reps {
			t += counterDelta(before.reps[i], after.reps[i], family)
		}
		return t
	}
	gw := func(family string) float64 { return counterDelta(before.gw, after.gw, family) }
	c.shed += rep("lam_shed_total")
	c.flushes += rep("lam_coalesce_flushes_total")
	c.flushRows += rep("lam_coalesce_rows_total")
	c.retrainsStarted += rep("lam_online_retrains_started_total")
	c.retrainsPublished += rep("lam_online_retrains_published_total")
	c.retries += gw("lam_gateway_retries_total")
	c.spills += gw("lam_gateway_spilled_429_total") + gw("lam_gateway_spilled_failure_total") + gw("lam_gateway_backend_spills_away_total")
	for _, e := range after.reps {
		c.queuePeak = math.Max(c.queuePeak, familySum(e, "lam_queue_peak_depth"))
	}
	c.scrapeTook = append(c.scrapeTook, before.took...)
	c.scrapeTook = append(c.scrapeTook, after.took...)
}
