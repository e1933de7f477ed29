package main

import (
	"slices"
	"time"

	"anurand/internal/delegate"
)

// The four stages of one follower's install, cut at boundaries the
// benchmark sees from outside the runtime. Every boundary is a Send or a
// journal Append, so for each (follower, round) sample the stages add
// up exactly to its install latency:
//
//	report_quorum    round open -> Send of the quorum-th follower report
//	tune_wait        that report -> the delegate's first MsgMap Send
//	                 (quorum poll, Tune, Encode)
//	fanout           first MsgMap Send -> the Send to this follower
//	deliver_install  that Send -> the follower's journal Append returns
//
// A round whose delegate tuned on the grace deadline before a quorum of
// reports was sent has no quorum point; its report_quorum stage ends at
// the first map.
var stageNames = [4]string{"report_quorum", "tune_wait", "fanout", "deliver_install"}

// controlStats is the control path of one measured window, over the
// rounds that opened inside it.
type controlStats struct {
	rounds         int
	emptyRounds    int       // rounds no follower installed
	followerRounds int       // (follower, round) pairs that could install
	lags           []float64 // ms: gap between round opens minus the interval
	installs       []float64 // ms: round open -> follower journal Append

	// Traced only.
	mapSends  int
	mapBytes  int
	staged    []float64    // ms: installs with every stage boundary seen
	stages    [4][]float64 // ms, aligned with staged
	appendUs  []float64
	observeUs []float64
}

type nodeRound struct {
	node  delegate.NodeID
	round uint64
}

// control analyses the rounds opened in [from, to). With a span log it
// also builds the stage split and records round spans into it.
func (rec *recorder) control(from, to int64, interval time.Duration, quorum int, log *spanLog) controlStats {
	rec.mu.Lock()
	opens := make(map[uint64]openEvent)
	for r, op := range rec.opens {
		if op.at >= from && op.at < to {
			opens[r] = op
		}
	}
	appends := slices.Clone(rec.appends)
	reports := slices.Clone(rec.reports)
	maps := slices.Clone(rec.maps)
	observes := slices.Clone(rec.observes)
	rec.mu.Unlock()

	var cs controlStats
	rounds := make([]uint64, 0, len(opens))
	for r := range opens {
		rounds = append(rounds, r)
	}
	slices.Sort(rounds)
	cs.rounds = len(rounds)

	installed := make(map[nodeRound]appendEvent)
	for _, a := range appends {
		k := nodeRound{a.node, a.round}
		if prev, ok := installed[k]; !ok || a.end < prev.end {
			installed[k] = a
		}
		if log != nil && a.start >= from && a.start < to {
			cs.appendUs = append(cs.appendUs, float64(a.end-a.start)/1e3)
		}
	}

	// Traced: report Sends to each round's delegate, and its map Sends.
	reportAt := make(map[uint64][]int64)
	mapAt := make(map[nodeRound]int64) // (to, round) -> first map Send
	firstMap := make(map[uint64]int64)
	for _, m := range reports {
		if op, ok := opens[m.round]; ok && m.to == op.by {
			reportAt[m.round] = append(reportAt[m.round], m.at)
		}
	}
	for _, m := range maps {
		op, ok := opens[m.round]
		if !ok || m.from != op.by {
			continue
		}
		cs.mapSends++
		cs.mapBytes += m.bytes
		if t, seen := firstMap[m.round]; !seen || m.at < t {
			firstMap[m.round] = m.at
		}
		if t, seen := mapAt[nodeRound{m.to, m.round}]; !seen || m.at < t {
			mapAt[nodeRound{m.to, m.round}] = m.at
		}
	}

	roundSpan := make(map[uint64]uint64)
	for i, r := range rounds {
		op := opens[r]
		if i > 0 {
			cs.lags = append(cs.lags, ms(time.Duration(op.at-opens[rounds[i-1]].at)-interval))
		}
		fm, haveMap := firstMap[r]
		q := fm
		if reps := reportAt[r]; len(reps) >= quorum-1 && quorum > 1 {
			slices.Sort(reps)
			q = min(reps[quorum-2], fm)
		}
		var root uint64
		if log != nil && haveMap {
			root = log.add("round", r, 0, op.at, fm)
			roundSpan[r] = root
			log.add("report_quorum", r, root, op.at, q)
			log.add("tune_wait", r, root, q, fm)
		}
		got := 0
		for f := 0; f < rec.n; f++ {
			node := delegate.NodeID(f)
			if node == op.by {
				continue
			}
			cs.followerRounds++
			a, ok := installed[nodeRound{node, r}]
			if !ok {
				continue
			}
			got++
			cs.installs = append(cs.installs, float64(a.end-op.at)/1e6)
			sent, ok := mapAt[nodeRound{node, r}]
			if log == nil || !haveMap || !ok {
				continue
			}
			cs.staged = append(cs.staged, float64(a.end-op.at)/1e6)
			for s, d := range [4]int64{q - op.at, fm - q, sent - fm, a.end - sent} {
				cs.stages[s] = append(cs.stages[s], float64(d)/1e6)
			}
			log.add("fanout", r, root, fm, sent)
			di := log.add("deliver_install", r, root, sent, a.end)
			log.add("journal.append", r, di, a.start, a.end)
			if root != 0 && a.end > log.spans[root-1].End {
				log.spans[root-1].End = a.end
			}
		}
		if got == 0 {
			cs.emptyRounds++
		}
	}
	for _, o := range observes {
		if o.start < from || o.start >= to {
			continue
		}
		cs.observeUs = append(cs.observeUs, float64(o.end-o.start)/1e3)
		if log != nil {
			log.add("observe", o.round, roundSpan[o.round], o.start, o.end)
		}
	}
	return cs
}

// setLayers records the control-path per-layer metrics of a traced
// window; c0 and c1 are the counters read around it.
func (cs *controlStats) setLayers(res *result, c0, c1 counters) {
	n := len(cs.staged)
	res.set("cluster.install_ms_mean", mean(cs.staged), "ms", n)
	for i, name := range stageNames {
		res.set("cluster.stage."+name+"_ms_mean", mean(cs.stages[i]), "ms", n)
	}
	res.set("cluster.stage.report_quorum_ms_p50", quantile(cs.stages[0], 0.50), "ms", n)
	res.set("cluster.stage.tune_wait_ms_p50", quantile(cs.stages[1], 0.50), "ms", n)
	res.set("cluster.stage.fanout_ms_p90", quantile(cs.stages[2], 0.90), "ms", n)
	res.set("cluster.stage.deliver_install_ms_p90", quantile(cs.stages[3], 0.90), "ms", n)
	res.set("cluster.round_lag_ms_p99", quantile(cs.lags, 0.99), "ms", len(cs.lags))
	if cs.followerRounds > 0 {
		miss := cs.followerRounds - len(cs.installs)
		res.set("cluster.install_miss_pct", 100*float64(miss)/float64(cs.followerRounds), "%", cs.followerRounds)
	}
	if cs.mapSends > 0 {
		res.set("cluster.map_useful_pct", 100*float64(len(cs.installs))/float64(cs.mapSends), "%", cs.mapSends)
	}
	res.set("cluster.send_drops", float64(c1.sendDrops-c0.sendDrops), "count", 1)
	res.set("cluster.stale_maps_rejected", float64(c1.staleMaps-c0.staleMaps), "count", 1)
	res.set("cluster.observe_us_p50", quantile(cs.observeUs, 0.50), "us", len(cs.observeUs))
	sent := c1.net.Sent - c0.net.Sent
	if cs.rounds > 0 {
		res.set("memnet.msgs_per_round", float64(sent)/float64(cs.rounds), "count", cs.rounds)
		res.set("memnet.map_kb_per_round", float64(cs.mapBytes)/1024/float64(cs.rounds), "KB", cs.rounds)
	}
	if sent > 0 {
		res.set("memnet.drop_pct", 100*float64(c1.net.Dropped-c0.net.Dropped)/float64(sent), "%", int(sent))
	}
	res.set("memnet.overflowed", float64(c1.net.Overflowed-c0.net.Overflowed), "count", 1)
	res.set("journal.append_us_p50", quantile(cs.appendUs, 0.50), "us", len(cs.appendUs))
	res.set("journal.append_us_p99", quantile(cs.appendUs, 0.99), "us", len(cs.appendUs))
}
