package main

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

const (
	// defaultsBatch rows go in each drift-default /observe request:
	// lam-replay's default batch.
	defaultsBatch = 32
	// defaultsSegment rows of one machine's ground truth are sent
	// before drift-default switches to the next machine, whether or not
	// the model has adapted by then.
	defaultsSegment = 2048
	// quietTimeout bounds the wait, after a drift-default slice, for
	// the replicas' retrains to finish.
	quietTimeout = 10 * time.Second
)

// defaultsPhase is drift-default: the drift stream as lam-replay sends
// it by default (32-row /observe batches, switching machine on a row
// schedule) through the gateway at lam-gateway's defaults, with
// closed-loop reads of the same model beside it. It measures two known
// faults of the program at those defaults rather than failing on them:
// /observe spills to the model's non-home replica, which then retrains
// and publishes versions of the same model as well; and small batches
// trip the detector on a window still mostly holding the previous
// machine, so candidates are rolled back and adaptation can stall. Its
// reads are still checked, and a failed request still fails the run.
type defaultsPhase struct {
	f     *fleet
	in    *driftInputs
	c, rc *http.Client
	rep   *report

	segments int    // segments completed
	sent     int    // rows of the current segment sent
	segPromo uint64 // promotions over the replicas when the segment began
	promoted int    // completed segments in which a version was promoted
	roll0    uint64 // rollbacks over the replicas when the phase began
	reads    []sample

	// Per replica, over the phase's slices.
	observed, published []float64
}

func newDefaultsPhase(cfg config, f *fleet) (*defaultsPhase, error) {
	in, err := newDriftInputs(cfg.seed^0x64656661, defaultsModel)
	if err != nil {
		return nil, err
	}
	p := &defaultsPhase{
		f: f, in: in, c: newClient(1), rc: newClient(1), rep: newReport(),
		observed: make([]float64, len(f.reps)), published: make([]float64, len(f.reps)),
	}
	p.segPromo, p.roll0, err = p.rollouts()
	return p, err
}

// rollouts sums the model's promotions and rollbacks over the replicas'
// rollout controllers.
func (p *defaultsPhase) rollouts() (promotions, rollbacks uint64, err error) {
	for _, r := range p.f.reps {
		st, err := rolloutStatus(p.c, r.url, defaultsModel)
		if err != nil {
			return 0, 0, err
		}
		promotions += st.Promotions
		rollbacks += st.Rollbacks
	}
	return promotions, rollbacks, nil
}

// The phase is the same traced or not: its figures are counts.
func (p *defaultsPhase) slice(ctx context.Context, _ bool, d time.Duration) error {
	if !p.rep.correct() {
		return nil
	}
	deadline := time.Now().Add(d)
	before, err := scrapeFleet(p.f)
	if err != nil {
		return err
	}
	rd := startReader(p.rc, p.f.defURL+"/predict", p.in.bodies)
	for ctx.Err() == nil && time.Now().Before(deadline) {
		body, err := p.in.batch(driftSchedule[p.segments%len(driftSchedule)], defaultsBatch)
		if err != nil {
			return err
		}
		p.rep.attempted++
		if _, err := observe(p.c, p.f.defURL, body); err != nil {
			p.rep.wrong("drift-default: /observe: %v", err)
			break
		}
		if p.sent += defaultsBatch; p.sent < defaultsSegment {
			continue
		}
		p.sent = 0
		p.segments++
		promo, _, err := p.rollouts()
		if err != nil {
			return err
		}
		if promo > p.segPromo {
			p.promoted++
		}
		p.segPromo = promo
	}
	p.reads = append(p.reads, rd.finish()...)
	// Let the replicas' retrains finish so they do not run into the
	// next phase's slice.
	after, err := quiet(p.f)
	if err != nil {
		return err
	}
	for i := range p.f.reps {
		p.observed[i] += counterDelta(before.reps[i], after.reps[i], "lam_online_observations_total")
		p.published[i] += counterDelta(before.reps[i], after.reps[i], "lam_online_retrains_published_total")
	}
	return ctx.Err()
}

// quiet scrapes the fleet until no replica has a retrain in flight.
func quiet(f *fleet) (scrapes, error) {
	deadline := time.Now().Add(quietTimeout)
	for {
		s, err := scrapeFleet(f)
		if err != nil {
			return s, err
		}
		busy := false
		for _, e := range s.reps {
			done := familySum(e, "lam_online_retrains_published_total") + familySum(e, "lam_online_retrains_discarded_total") +
				familySum(e, "lam_online_retrain_errors_total")
			busy = busy || familySum(e, "lam_online_retrains_started_total") > done
		}
		if !busy {
			return s, nil
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("retrains still running %v after drift-default's slice", quietTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *defaultsPhase) finish(ctx context.Context, rep *report) error {
	rep.attempted += p.rep.attempted
	rep.failed += p.rep.failed
	rep.errs = append(rep.errs, p.rep.errs...)
	_, roll, err := p.rollouts()
	if err != nil {
		return err
	}
	// The model's home is the replica that ingested most of its
	// observations; what the other replicas ingested spilled there.
	home, total := 0, 0.0
	for i, n := range p.observed {
		total += n
		if n > p.observed[home] {
			home = i
		}
	}
	foreignObs, foreignPub := 0.0, 0.0
	for i := range p.observed {
		if i != home {
			foreignObs += p.observed[i]
			foreignPub += p.published[i]
		}
	}
	promotedFrac, obsFrac := 0.0, 0.0
	if p.segments > 0 {
		promotedFrac = float64(p.promoted) / float64(p.segments)
	}
	if total > 0 {
		obsFrac = foreignObs / total
	}
	rep.layer("drift_default.segments", "count", float64(p.segments))
	rep.layer("drift_default.promoted_frac", "ratio", promotedFrac)
	rep.layer("drift_default.rollbacks", "count", float64(roll-p.roll0))
	rep.layer("drift_default.foreign_observe_frac", "ratio", obsFrac)
	rep.layer("drift_default.foreign_publishes", "count", foreignPub)
	tallyInto(rep, "drift_default.", tally(p.reads))
	rep.note("drift-default (lam-gateway defaults, %d-row /observe, switch every %d rows): %d segments completed, a promotion in %d of them, %d rollbacks; %.1f%% of observations ingested by a non-home replica, which published %.0f versions; %d reads",
		defaultsBatch, defaultsSegment, p.segments, p.promoted, roll-p.roll0, 100*obsFrac, foreignPub, len(p.reads))
	return checkReads(ctx, rep, "drift-default", p.f.reg, defaultsModel, p.in.reads, p.reads)
}
