package server

import (
	"fmt"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// Restart recovery: replaying the write-ahead journal (journal.go)
// back into the job manager before the server starts answering. Each
// journal file resolves to one of four outcomes:
//
//	already_done  the merged run is in the store (the crash hit after
//	              Put's atomic rename, before journal removal) — the
//	              job is registered done and its journal deleted.
//	failed        a terminal failed record, mid-file corruption, a
//	              truncated/unparseable submission record, or records
//	              inconsistent with the plan — the job is registered
//	              failed (clients see job_failed, never a panic) and
//	              the journal kept as evidence.
//	completed     every shard's result was journaled but the merge
//	              never filed — recovery finishes the merge itself;
//	              no worker runs again.
//	resumed       the common case: accepted shards restored from their
//	              journaled wire payloads, the lease table restored
//	              (tokens, holders, per-shard seq high-water), and only
//	              the genuinely pending shards re-exposed for claiming.
//
// Restoring leases verbatim matters twice over. The seq high-water
// keeps post-restart token strings (jobID.idx.seq) from colliding with
// tokens an earlier process handed out; and a pre-crash worker that is
// still executing can upload under its old token — the restored lease
// is its shard's current lease even if lapsed, exactly the
// expired-but-unevicted acceptance path — so a restart costs at most
// the re-execution that lease expiry would have forced anyway.
//
// recover runs single-threaded before the listener opens; it is the
// one writer of manager state at that point, so it takes mgr.mu only
// to share the locked helpers.

func (m *jobMgr) recover() error {
	if m.wal == nil {
		return nil
	}
	clean := m.wal.consumeCleanShutdown()
	// A crash before a checkpoint's rename abandons its temp file; the
	// journal reads correctly without it.
	m.wal.tidyTemp()
	ids, err := m.wal.jobIDs()
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		if !clean {
			m.logger.Info("journal empty; nothing to recover")
		}
		return nil
	}
	m.logger.Info("replaying coordinator journal",
		"jobs", len(ids), "clean_shutdown", clean)
	var finalize []*job
	for _, id := range ids {
		j, complete, err := m.recoverJob(id)
		if err != nil {
			return err
		}
		if complete {
			finalize = append(finalize, j)
		}
		m.logger.Info("recovered job", "job", id, "state", j.state,
			"shards_done", j.shardsDone, "shards_total", len(j.shards))
	}
	// Complete merges outside any lock, after every journal is replayed
	// — the same path the completing upload would have run.
	for _, j := range finalize {
		m.finalizeDistributed(j)
	}
	return nil
}

// recoverJob replays one journal into a registered job. complete marks
// a job whose every shard landed pre-crash; the caller finishes its
// merge. The returned error is only for unreadable journal I/O —
// damaged content becomes a failed job, never an error.
func (m *jobMgr) recoverJob(id string) (j *job, complete bool, err error) {
	rep, err := m.wal.readWAL(id)
	if err != nil {
		return nil, false, err
	}
	if rep.tornTail {
		// A crash tore the final append. Nothing torn was ever
		// acknowledged (fsync-before-ack), so dropping it is safe.
		m.met.journalTorn.Inc()
		m.logger.Warn("dropped torn journal tail", "job", id)
	}
	if len(rep.stale) > 0 {
		// Segments below the replay base: a renamed checkpoint made them
		// redundant before the crash could unlink them (the mid-swap
		// window). Finish the unlink the compactor started.
		m.logger.Info("tidying segments superseded by checkpoint",
			"job", id, "segments", len(rep.stale))
		for _, p := range rep.stale {
			_ = os.Remove(p)
		}
		m.wal.syncDir()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.bumpNextIDLocked(id)

	// The replay base's first record carries everything the plan rebuild
	// needs: a submission record (canonical spec) or a checkpoint record
	// (spec inside the snapshot, plus the summarized state to seed).
	var (
		spec campaign.Spec
		key  string
		plan []campaign.ShardInfo
		cp   *cpState
	)
	var cause error
	parseSpecPlan := func(raw []byte, what string) {
		parsed, perr := campaign.ParseSpec(raw)
		if perr != nil {
			cause = fmt.Errorf("journal %s record: %w", what, perr)
			return
		}
		spec = parsed.Normalized()
		cfg, cerr := spec.Config()
		if cerr != nil {
			cause = fmt.Errorf("journal %s record: %w", what, cerr)
			return
		}
		plan = cfg.Shards()
		if key == "" || len(plan) == 0 {
			cause = fmt.Errorf("journal %s record: empty key or plan", what)
		}
	}
	switch {
	case len(rep.records) == 0 || rep.records[0].Job != id:
		cause = fmt.Errorf("journal truncated: no submission record for %s", id)
	case rep.records[0].Type == walSubmit:
		key = rep.records[0].Key
		parseSpecPlan(rep.records[0].Spec, "submission")
	case rep.records[0].Type == walCheckpoint:
		st, derr := decodeCheckpoint(rep.records[0].Snap)
		if derr != nil {
			cause = fmt.Errorf("journal %s: %w", id, derr)
		} else {
			cp = st
			key = st.Key
			parseSpecPlan(st.Spec, "checkpoint")
			if cause == nil && len(st.Shards) != len(plan) {
				cause = fmt.Errorf("journal checkpoint record: %d shards, plan has %d",
					len(st.Shards), len(plan))
			}
		}
	default:
		cause = fmt.Errorf("journal truncated: no submission record for %s", id)
	}
	if cause == nil && rep.corrupt != nil {
		cause = rep.corrupt
	}

	j = m.registerRecoveredLocked(id, key, spec, plan)
	if cause == nil && cp != nil {
		cause = m.applyCheckpointLocked(j, cp)
	}
	if cause == nil {
		cause = m.replayLocked(j, rep.records[1:])
	}
	if cause == nil {
		if _, dup := m.active[j.key]; dup {
			cause = fmt.Errorf("journal replay: a second journal already recovered key %.12s", j.key)
		}
	}

	switch {
	case cause != nil:
		// Surfaced as job_failed on every artifact route; the journal
		// file stays on disk as evidence (and so the failure survives
		// further restarts).
		j.state = JobFailed
		j.err = cause.Error()
		j.finished = m.now()
		m.met.recoveryFailed.Inc()
		m.met.journal.Append(telemetry.EventJobFailed, &j.id, &j.err, -1, -1)
		m.logger.Error("journal replay failed", "job", id, "error", cause)
		return j, false, nil

	case m.store.Has(j.key):
		// The run is filed — the crash hit between the store's atomic
		// rename and journal removal. Nothing left to do but tidy.
		j.state = JobDone
		j.finished = m.now()
		j.wires = nil
		for i := range j.shards {
			j.shards[i].State = "done"
		}
		j.shardsDone = len(j.shards)
		j.tracesDone = j.tracesTotal
		_ = m.wal.remove(id)
		m.met.recoveryDone.Inc()
		return j, false, nil
	}

	// The job is live again: it owns its cache key, counts as running,
	// and keeps journaling into its reopened file.
	m.active[j.key] = j
	w, werr := m.wal.openAppend(id)
	if werr != nil {
		m.logger.Error("journal reopen", "job", id, "error", werr)
	} else {
		j.wal = w
	}
	m.met.jobsRunning.Add(1)
	m.met.journal.Append(telemetry.EventJobRunning, &j.id, nil, -1, -1)

	if j.shardsDone == len(j.shards) {
		// Every shard landed pre-crash; only the merge is missing.
		j.finalizing = true
		m.met.recoveryCompleted.Inc()
		return j, true, nil
	}
	// Pending shards will be claimed and executed: this process runs
	// (part of) a campaign.
	m.openShards += len(j.shards) - j.shardsDone
	m.stats.RunsStarted++
	m.met.jobsStarted.Inc()
	m.met.recoveryResumed.Inc()
	return j, false, nil
}

// applyCheckpointLocked seeds a freshly registered job with a
// checkpoint's summarized state: shard states, the full lease table
// (primary and speculative tokens, seq high-water, grant timestamps),
// accepted wires, and the duration statistics feeding speculation.
// Tail records replay on top, idempotently. A wire that does not fit
// its plan slot (another wire version, say) is an error: the job
// fails rather than merge it. Callers hold m.mu.
func (m *jobMgr) applyCheckpointLocked(j *job, st *cpState) error {
	j.durEWMA = st.DurEWMA
	j.durMax = st.DurMax
	j.durCount = st.DurCount
	for i := range st.Shards {
		cs := &st.Shards[i]
		sh, l := &j.shards[i], &j.leases[i]
		l.seq = cs.Seq
		l.token = cs.Token
		l.worker = cs.Worker
		l.expires = cs.Expires
		l.granted = cs.Granted
		l.batchN = cs.BatchN
		l.doneToken = cs.DoneToken
		l.specToken = cs.SpecToken
		l.specWorker = cs.SpecWorker
		l.specExpires = cs.SpecExpires
		switch {
		case cs.Wire != nil:
			if err := cs.Wire.CheckPlan(sh.ShardInfo); err != nil {
				return fmt.Errorf("journal checkpoint: shard %d: %w", i, err)
			}
			j.wires[i] = cs.Wire
			sh.State = "done"
			sh.Worker = cs.Worker
			sh.Events = cs.Wire.Stats.Events
			sh.ElapsedSeconds = cs.Wire.Stats.Elapsed.Seconds()
			j.shardsDone++
			j.tracesDone += sh.Traces
			m.met.recoveryShards.Inc()
		case cs.State == "leased":
			sh.State = "leased"
			sh.Worker = cs.Worker
		}
	}
	return nil
}

// replayLocked applies the post-submission records to a freshly
// registered job. A record inconsistent with the plan is corruption;
// duplicates (the crash-between-journal-and-ack retry) replay
// first-wins, exactly like the live accept path.
func (m *jobMgr) replayLocked(j *job, recs []walRecord) error {
	for _, rec := range recs {
		switch rec.Type {
		case walLease:
			if rec.Idx < 0 || rec.Idx >= len(j.shards) {
				return fmt.Errorf("journal replay: lease record for shard %d outside plan of %d",
					rec.Idx, len(j.shards))
			}
			sh, l := &j.shards[rec.Idx], &j.leases[rec.Idx]
			if sh.State == "done" {
				continue
			}
			switch rec.Event {
			case walGrant:
				sh.State = "leased"
				sh.Worker = rec.Worker
				l.token = rec.Token
				l.worker = rec.Worker
				l.expires = rec.Expires
				l.granted = rec.Time
				l.batchN = rec.BatchN
				if rec.Seq > l.seq {
					l.seq = rec.Seq
				}
			case walExpire:
				// Mirror the live eviction (evictLeaseLocked): a live
				// speculative twin at expiry was promoted to primary, not
				// returned to the pool.
				if l.specToken != "" {
					l.token, l.worker, l.expires = l.specToken, l.specWorker, l.specExpires
					l.granted, l.batchN = rec.Time, 1
					l.specToken, l.specWorker, l.specExpires = "", "", time.Time{}
					sh.Worker = l.worker
				} else {
					sh.State = "pending"
					sh.Worker = ""
					l.token, l.worker = "", ""
				}
			case walSpecGrant:
				l.specToken = rec.Token
				l.specWorker = rec.Worker
				l.specExpires = rec.Expires
				if rec.Seq > l.seq {
					l.seq = rec.Seq
				}
			case walSpecExpire:
				l.specToken, l.specWorker, l.specExpires = "", "", time.Time{}
			}
		case walResult:
			if rec.Idx < 0 || rec.Idx >= len(j.shards) {
				return fmt.Errorf("journal replay: result record for shard %d outside plan of %d",
					rec.Idx, len(j.shards))
			}
			if rec.Wire == nil {
				return fmt.Errorf("journal replay: result record for shard %d has no payload", rec.Idx)
			}
			if err := rec.Wire.CheckPlan(j.shards[rec.Idx].ShardInfo); err != nil {
				return fmt.Errorf("journal replay: result record for shard %d: %w", rec.Idx, err)
			}
			if j.wires[rec.Idx] != nil {
				continue // duplicate append from a retried upload; first wins
			}
			sh, l := &j.shards[rec.Idx], &j.leases[rec.Idx]
			j.wires[rec.Idx] = rec.Wire
			l.doneToken = rec.Token
			sh.State = "done"
			sh.Worker = rec.Worker
			sh.Events = rec.Wire.Stats.Events
			sh.ElapsedSeconds = rec.Wire.Stats.Elapsed.Seconds()
			j.shardsDone++
			j.tracesDone += sh.Traces
			m.met.recoveryShards.Inc()
		case walFailed:
			return fmt.Errorf("recovered terminal failure: %s", rec.Error)
		case walSubmit:
			return fmt.Errorf("journal replay: second submission record")
		default:
			// Unknown record types are skipped, not fatal: a newer
			// process may have journaled kinds this binary predates.
		}
	}
	return nil
}

// registerRecoveredLocked builds and registers a recovered distributed
// job skeleton (state running, all shards pending — replay refines
// it). Callers hold m.mu.
func (m *jobMgr) registerRecoveredLocked(id, key string, spec campaign.Spec, plan []campaign.ShardInfo) *job {
	j := &job{
		id:        id,
		key:       key,
		spec:      spec,
		state:     JobRunning,
		execution: campaign.ExecutionDistributed,
		pos:       len(m.order),
		submitted: m.now(),
		started:   m.now(),
		shards:    make([]ShardProgress, len(plan)),
		leases:    make([]shardLease, len(plan)),
		wires:     make([]*campaign.ShardResultWire, len(plan)),
	}
	for i, sh := range plan {
		j.shards[i] = ShardProgress{ShardInfo: sh, State: "pending"}
		j.tracesTotal += sh.Traces
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	m.stats.Jobs++
	m.stats.Recovered++
	return j
}

// bumpNextIDLocked keeps fresh job IDs above every recovered one, so a
// new job can never collide with (and truncate) a recovered journal.
func (m *jobMgr) bumpNextIDLocked(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "j-%d", &n); err == nil && n > m.nextID {
		m.nextID = n
	}
}
