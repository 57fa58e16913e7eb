package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chiaroscuro"
)

// timedEvent is one Job.Events() notification with its arrival time.
type timedEvent struct {
	at time.Time
	ev chiaroscuro.Event
}

// span is one traced interval. Ids are built from the protocol's own
// coordinates — workload, seed, job, iteration, phase, cycle — never
// from random ids, so two traces of one seed line up span for span.
type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory until it ends.
type tracer struct {
	workload string
	seed     uint64
	epoch    time.Time
	spans    []span
}

func (t *tracer) add(id, parent, name string, start, end time.Time) {
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// write stores the spans as JSON under dir and returns the file path.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", t.workload, t.seed))
	b, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{t.workload, t.seed, t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

var phaseNames = map[chiaroscuro.Phase]string{
	chiaroscuro.PhaseSum:           "sum",
	chiaroscuro.PhaseDissemination: "dissemination",
	chiaroscuro.PhaseDecryption:    "decryption",
}

// eventLayers derives the core and dpkmeans layer metrics of one job
// from its event arrival times, recording the job → phase → cycle span
// tree as it goes. start and end bracket Job.Run.
func (t *tracer) eventLayers(job int, start, end time.Time, evs []timedEvent) map[string]float64 {
	m := map[string]float64{"core.join.ms": 0, "core.release.ms": 0}
	for _, name := range phaseNames {
		m["core."+name+".ms"] = 0
		m["core."+name+".cycles"] = 0
	}
	jobID := fmt.Sprintf("%s/%d/%d", t.workload, t.seed, job)
	t.add(jobID, "", "job", start, end)

	type phaseSpan struct {
		it         int
		ph         chiaroscuro.Phase
		start, end time.Time
	}
	var cur *phaseSpan
	closePhase := func() {
		if cur == nil {
			return
		}
		name := phaseNames[cur.ph]
		t.add(fmt.Sprintf("%s/%d/%s", jobID, cur.it, name), jobID, name, cur.start, cur.end)
		m["core."+name+".ms"] += ms(cur.end.Sub(cur.start))
		cur = nil
	}

	prev, last, lastRelease := start, start, start
	var lastDecrypt time.Time
	var sumCycles, iterGaps []float64
	joined := false
	for _, te := range evs {
		switch ev := te.ev.(type) {
		case chiaroscuro.PhaseProgress:
			if !joined {
				joined = true
				m["core.join.ms"] = ms(te.at.Sub(start))
				t.add(jobID+"/0/join", jobID, "join", start, te.at)
			}
			if cur == nil || cur.it != ev.Iteration || cur.ph != ev.Phase {
				closePhase()
				cur = &phaseSpan{it: ev.Iteration, ph: ev.Phase, start: prev}
			}
			cur.end = te.at
			name := phaseNames[ev.Phase]
			phaseID := fmt.Sprintf("%s/%d/%s", jobID, ev.Iteration, name)
			t.add(fmt.Sprintf("%s/%d", phaseID, ev.Cycle), phaseID, "cycle", prev, te.at)
			m["core."+name+".cycles"]++
			switch ev.Phase {
			case chiaroscuro.PhaseSum:
				sumCycles = append(sumCycles, ms(te.at.Sub(prev)))
			case chiaroscuro.PhaseDecryption:
				lastDecrypt = te.at
			}
		case chiaroscuro.IterationReleased:
			closePhase()
			if !lastDecrypt.IsZero() {
				m["core.release.ms"] += ms(te.at.Sub(lastDecrypt))
				t.add(fmt.Sprintf("%s/%d/release", jobID, ev.Iteration), jobID, "release", lastDecrypt, te.at)
				lastDecrypt = time.Time{}
			}
			t.add(fmt.Sprintf("%s/%d/iteration", jobID, ev.Iteration), jobID, "iteration", lastRelease, te.at)
			iterGaps = append(iterGaps, ms(te.at.Sub(lastRelease)))
			lastRelease = te.at
		default:
			continue // Churn and the terminal Done mark no boundary
		}
		prev, last = te.at, te.at
	}
	closePhase()
	// Events are stamped on arrival, so the last one can land just
	// after Run returned; the teardown is then empty, not negative.
	if last.After(end) {
		last = end
	}
	t.add(jobID+"/0/teardown", jobID, "teardown", last, end)
	m["core.teardown.ms"] = ms(end.Sub(last))
	m["core.sum.cycle_p50_ms"] = median(sumCycles)
	m["dpkmeans.iterations"] = float64(len(iterGaps))
	m["dpkmeans.iter_ms"] = median(iterGaps)
	return m
}
