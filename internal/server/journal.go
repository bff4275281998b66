package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bodyio"
	"repro/internal/campaign"
)

// The coordinator's write-ahead journal: the durable half of the
// distributed job state that leases.go keeps in memory. Everything the
// control plane promises a worker — "your submission is accepted",
// "your lease is granted", and above all "your shard result is
// accepted" — is appended to a per-job journal and fsync'd BEFORE the
// HTTP response carrying that promise is written. A crashed
// coordinator therefore owns every acknowledged byte: replaying the
// journals at startup reconstructs each running distributed job, its
// accepted-shard set (full ShardResultWire payloads), and its lease
// table, so only the genuinely pending shards are re-exposed for
// claiming and no acknowledged work is ever re-executed.
//
// Layout: the journal lives beside the content-addressed store fan-out
// under <data dir>/journal/ — a non-2-hex-char name, so OpenStore's
// re-index skips it by construction. A job's journal is a chain of
// append-only SEGMENTS:
//
//	<data dir>/journal/<jobID>.wal        segment 1 (opens with the submit record)
//	<data dir>/journal/<jobID>.<n>.wal    segment n ≥ 2
//
// Appends always go to the highest-numbered segment (the active one).
// When the active segment exceeds the configured byte cap it is sealed
// and a fresh active segment is opened two numbers up; the number in
// between is reserved for a CHECKPOINT segment the background
// compactor then writes — a single record carrying a gzip-compressed
// snapshot of the job's entire replayable state (accepted wires, lease
// table, duration statistics). Once the checkpoint is durably renamed
// into place, every lower-numbered segment is redundant and unlinked,
// so a long-lived coordinator's journal stays O(pending work) instead
// of O(history). Recovery replays the highest segment that starts with
// a submit or checkpoint record, plus every segment after it; a crash
// mid-compaction therefore leaves a journal that reads as either the
// old chain (checkpoint never renamed) or the new one (renamed; stale
// chain tidied at recovery) — never a mix, never neither.
//
// Each record is one line:
//
//	w1 <crc32-hex8> <compact JSON>\n
//
// where the checksum is CRC-32 (IEEE) of exactly the JSON bytes. The
// prefix names the format version; the checksum turns "did this line
// land whole?" into a yes/no question, which is what makes the replay
// semantics clean:
//
//   - A damaged FINAL line of the FINAL segment is a torn tail — the
//     crash interrupted an append whose record was never acknowledged
//     (the fsync-before-ack discipline guarantees this; sealed
//     segments were fully synced before rolling). It is dropped,
//     counted, and the job still recovers.
//   - A damaged line anywhere else is real corruption — the disk lied.
//     The job is surfaced as failed with code job_failed; it never
//     panics the coordinator and never merges doubtful bytes.
//
// The journal records only distributed jobs. In-process jobs need no
// durability: their submission is re-sendable, their run is atomic at
// the store layer (Put's temp-dir rename), and a crash mid-run simply
// re-simulates — determinism makes the retry byte-identical.
//
// Lifecycle: the journal is created (submit record, fsync'd) before
// the 202; grant/expiry records track the lease table (grants fsync'd
// before the claim response, expiries lazily — they are re-derivable
// from the clock); each accepted result is fsync'd before its 200 (see
// shardResultLocked). When the merged run lands in the store every
// segment is deleted — the store entry, itself crash-atomic, is now
// the durable record. A failed job keeps its journal with a terminal
// "failed" record so restarts re-surface the failure instead of
// re-running a poisoned merge.

// walFormatPrefix versions the on-disk line format.
const walFormatPrefix = "w1"

// walRecord is one journal line. Type discriminates; the other fields
// are a union over the record types:
//
//	submit:     job, key, spec (canonical bytes), time
//	lease:      idx, event ("grant"|"expire"|"spec-grant"|"spec-expire"),
//	            worker, seq, token, expires, batch (grant batch size)
//	result:     idx, worker, token, wire (full shard payload)
//	failed:     error, time
//	checkpoint: job, key, snap (gzip-compressed cpState JSON), time
type walRecord struct {
	Type string `json:"t"`

	Job  string          `json:"job,omitempty"`
	Key  string          `json:"key,omitempty"`
	Spec json.RawMessage `json:"spec,omitempty"`
	Time time.Time       `json:"time,omitzero"`

	Idx     int       `json:"idx,omitempty"`
	Event   string    `json:"event,omitempty"`
	Worker  string    `json:"worker,omitempty"`
	Seq     int       `json:"seq,omitempty"`
	Token   string    `json:"token,omitempty"`
	Expires time.Time `json:"expires,omitzero"`
	// BatchN is the number of shards granted in the same claim as this
	// grant — the straggler detector scales its patience by it, since a
	// worker executes its batch serially.
	BatchN int `json:"batch,omitempty"`

	Wire *campaign.ShardResultWire `json:"wire,omitempty"`

	// Snap is a checkpoint record's gzip-compressed cpState JSON
	// (base64 on the wire via encoding/json's []byte convention).
	Snap []byte `json:"snap,omitempty"`

	Error string `json:"error,omitempty"`
}

const (
	walSubmit     = "submit"
	walLease      = "lease"
	walResult     = "result"
	walFailed     = "failed"
	walCheckpoint = "checkpoint"

	walGrant      = "grant"
	walExpire     = "expire"
	walSpecGrant  = "spec-grant"
	walSpecExpire = "spec-expire"
)

const (
	walSuffix           = ".wal"
	walTempSuffix       = ".tmp"
	cleanShutdownMarker = "clean-shutdown"
	// defaultJournalSegmentBytes caps the active segment before a roll;
	// Config.JournalSegmentBytes overrides.
	defaultJournalSegmentBytes = 1 << 20
)

// cpState is a checkpoint record's payload: everything replay needs to
// reconstruct the job without the records the checkpoint supersedes.
// It may reflect records appended to the new active segment after the
// seal (the snapshot is taken later, under the manager lock); replay
// of those tail records on top is idempotent by the same rules the
// live paths use (results dedup first-wins, grants overwrite).
type cpState struct {
	Key    string          `json:"key"`
	Spec   json.RawMessage `json:"spec"`
	Shards []cpShard       `json:"shards"`
	// Shard-duration statistics feeding speculation and adaptive claim
	// sizing (leases.go) — preserved so a restarted coordinator keeps
	// speculating without re-learning.
	DurEWMA  float64 `json:"dur_ewma,omitempty"`
	DurMax   float64 `json:"dur_max,omitempty"`
	DurCount int     `json:"dur_count,omitempty"`
}

// cpShard is one shard's state inside a checkpoint.
type cpShard struct {
	State       string                    `json:"state"` // pending | leased | done
	Worker      string                    `json:"worker,omitempty"`
	Seq         int                       `json:"seq,omitempty"`
	Token       string                    `json:"token,omitempty"`
	Expires     time.Time                 `json:"expires,omitzero"`
	Granted     time.Time                 `json:"granted,omitzero"`
	BatchN      int                       `json:"batch,omitempty"`
	DoneToken   string                    `json:"done_token,omitempty"`
	SpecToken   string                    `json:"spec_token,omitempty"`
	SpecWorker  string                    `json:"spec_worker,omitempty"`
	SpecExpires time.Time                 `json:"spec_expires,omitzero"`
	Wire        *campaign.ShardResultWire `json:"wire,omitempty"`
}

// encodeCheckpoint gzips a snapshot's JSON through the shared writer
// pool. The accepted wires inside are highly repetitive JSON, which is
// what makes a checkpoint far smaller than the record chain it
// replaces.
func encodeCheckpoint(st *cpState) ([]byte, error) {
	body, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("server: journal: marshal checkpoint: %w", err)
	}
	var buf bytes.Buffer
	if err := bodyio.Gzip(&buf, body); err != nil {
		return nil, fmt.Errorf("server: journal: compress checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// maxCheckpointBytes bounds a checkpoint's decompressed JSON. The
// journal is the coordinator's own CRC-checked file, so this is a
// sanity bound, far above any real job.
const maxCheckpointBytes = 1 << 36

func decodeCheckpoint(snap []byte) (*cpState, error) {
	body, err := bodyio.Gunzip(snap, maxCheckpointBytes)
	if err != nil {
		return nil, fmt.Errorf("checkpoint snapshot: %w", err)
	}
	var st cpState
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("checkpoint snapshot: %w", err)
	}
	return &st, nil
}

// walDir manages the journal directory. It is not itself locked: all
// mutation happens under mgr.mu (appends, rolls) or on the single
// compactor goroutine (checkpoint writes of already-sealed state), or
// before serving starts (replay).
type walDir struct {
	dir string
	// segmentCap is the active-segment byte threshold that triggers a
	// seal-and-compact; zero means the default.
	segmentCap int64
}

// openWALDir creates (if needed) the journal directory under the store
// root.
func openWALDir(root string) (*walDir, error) {
	dir := filepath.Join(root, "journal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: journal: %w", err)
	}
	return &walDir{dir: dir}, nil
}

func (d *walDir) capBytes() int64 {
	if d.segmentCap > 0 {
		return d.segmentCap
	}
	return defaultJournalSegmentBytes
}

// segPath names one segment. Segment 1 keeps the bare <jobID>.wal name
// for continuity with single-file journals written by earlier builds.
func (d *walDir) segPath(jobID string, seq int) string {
	if seq <= 1 {
		return filepath.Join(d.dir, jobID+walSuffix)
	}
	return filepath.Join(d.dir, fmt.Sprintf("%s.%d%s", jobID, seq, walSuffix))
}

// walSegment is one on-disk segment of a job's journal chain.
type walSegment struct {
	seq  int
	path string
}

// parseSegName splits a journal file name into (jobID, seq); ok is
// false for non-segment files (the clean-shutdown marker, temp files).
func parseSegName(name string) (jobID string, seq int, ok bool) {
	stem, found := strings.CutSuffix(name, walSuffix)
	if !found || stem == "" {
		return "", 0, false
	}
	if dot := strings.LastIndexByte(stem, '.'); dot > 0 {
		if n, err := strconv.Atoi(stem[dot+1:]); err == nil && n >= 2 {
			return stem[:dot], n, true
		}
	}
	return stem, 1, true
}

// segments lists a job's on-disk segments in ascending order.
func (d *walDir) segments(jobID string) ([]walSegment, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("server: journal: %w", err)
	}
	var segs []walSegment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		id, seq, ok := parseSegName(e.Name())
		if ok && id == jobID {
			segs = append(segs, walSegment{seq: seq, path: filepath.Join(d.dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// syncDir fsyncs the journal directory so file creations and removals
// are themselves durable. Best-effort: not every filesystem supports
// directory fsync, and the record-level fsync already carries the
// correctness-critical promises.
func (d *walDir) syncDir() {
	if f, err := os.Open(d.dir); err == nil {
		_ = f.Sync()
		f.Close()
	}
}

// create opens a fresh journal (segment 1) for a job. Truncating an
// existing file is deliberate: job IDs restart per-process only above
// the recovered high-water mark (see recover), so a name collision
// means a stale file from a deleted job.
func (d *walDir) create(jobID string) (*jobWAL, error) {
	f, err := os.OpenFile(d.segPath(jobID, 1), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: journal: %w", err)
	}
	d.syncDir()
	return &jobWAL{f: f, seq: 1}, nil
}

// openAppend reopens a recovered job's highest segment for continued
// appends.
func (d *walDir) openAppend(jobID string) (*jobWAL, error) {
	segs, err := d.segments(jobID)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("server: journal: no segments for %s", jobID)
	}
	active := segs[len(segs)-1]
	f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: journal: %w", err)
	}
	size := int64(0)
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	return &jobWAL{f: f, seq: active.seq, size: size}, nil
}

// roll seals a job's active segment and opens a fresh one at newSeq.
// The sealed file needs no further writes and is closed; everything in
// it was already synced by the append-then-sync discipline.
func (d *walDir) roll(jobID string, w *jobWAL, newSeq int) error {
	f, err := os.OpenFile(d.segPath(jobID, newSeq), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("server: journal: roll: %w", err)
	}
	d.syncDir()
	_ = w.f.Close()
	w.f = f
	w.seq = newSeq
	w.size = 0
	return nil
}

// writeCheckpointSegment durably materializes a checkpoint as segment
// seq: the record is written to a temp file, fsync'd, then atomically
// renamed into place. Until the rename the journal reads as the old
// chain; after it, as checkpoint+tail.
func (d *walDir) writeCheckpointSegment(jobID string, seq int, rec *walRecord) (int, error) {
	final := d.segPath(jobID, seq)
	tmp := final + walTempSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("server: journal: checkpoint: %w", err)
	}
	w := &jobWAL{f: f}
	n, err := w.append(rec)
	if err == nil {
		err = w.sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return 0, fmt.Errorf("server: journal: checkpoint: %w", err)
	}
	d.syncDir()
	return n, nil
}

// removeSegmentsBelow unlinks every segment of the job numbered below
// seq — the chain a freshly renamed checkpoint supersedes.
func (d *walDir) removeSegmentsBelow(jobID string, seq int) error {
	segs, err := d.segments(jobID)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.seq >= seq {
			continue
		}
		if err := os.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	d.syncDir()
	return nil
}

// remove deletes a job's entire journal chain (after its run landed in
// the store, or when a failed job is garbage-collected).
func (d *walDir) remove(jobID string) error {
	segs, err := d.segments(jobID)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := os.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	d.syncDir()
	return nil
}

// jobIDs lists the job IDs with journals on disk, sorted.
func (d *walDir) jobIDs() ([]string, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("server: journal: %w", err)
	}
	seen := make(map[string]bool)
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if id, _, ok := parseSegName(e.Name()); ok && !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// tidyTemp removes leftover checkpoint temp files — a crash before the
// rename abandoned them, and the journal reads correctly without them.
func (d *walDir) tidyTemp() {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), walTempSuffix) {
			_ = os.Remove(filepath.Join(d.dir, e.Name()))
		}
	}
}

// markCleanShutdown journals that this process exited deliberately:
// leases were drained, nothing was torn. The marker is informational —
// recovery replays the same way either way — but it lets the next
// startup log "clean restart" vs "recovering from crash" truthfully.
func (d *walDir) markCleanShutdown(at time.Time) error {
	p := filepath.Join(d.dir, cleanShutdownMarker)
	if err := os.WriteFile(p, []byte(at.UTC().Format(time.RFC3339Nano)+"\n"), 0o644); err != nil {
		return err
	}
	d.syncDir()
	return nil
}

// consumeCleanShutdown reports and removes the clean-shutdown marker.
func (d *walDir) consumeCleanShutdown() bool {
	p := filepath.Join(d.dir, cleanShutdownMarker)
	if _, err := os.Stat(p); err != nil {
		return false
	}
	_ = os.Remove(p)
	d.syncDir()
	return true
}

// jobWAL is one job's open active segment. Appends are serialized by
// mgr.mu, like the in-memory state they shadow.
type jobWAL struct {
	f *os.File
	// seq numbers the active segment; size tracks its bytes so the
	// manager knows when to seal it.
	seq  int
	size int64
}

// append frames, checksums and writes one record, returning the bytes
// written. It does NOT sync; callers batch appends and sync once
// before releasing the promise the records carry.
func (w *jobWAL) append(rec *walRecord) (int, error) {
	body, err := marshalRecord(rec)
	if err != nil {
		return 0, fmt.Errorf("server: journal: marshal %s record: %w", rec.Type, err)
	}
	var line bytes.Buffer
	line.Grow(len(body) + 16)
	fmt.Fprintf(&line, "%s %08x ", walFormatPrefix, crc32.ChecksumIEEE(body))
	line.Write(body)
	line.WriteByte('\n')
	n, err := w.f.Write(line.Bytes())
	if err != nil {
		return n, fmt.Errorf("server: journal: append: %w", err)
	}
	w.size += int64(n)
	return n, nil
}

// marshalRecord encodes one record's JSON. A result record's wire is
// appended last through ShardResultWire.AppendJSON, so its dataset
// lines land in the journal verbatim — checked single-line JSON from
// the upload — instead of being re-compacted by encoding/json.
func marshalRecord(rec *walRecord) ([]byte, error) {
	if rec.Wire == nil {
		return json.Marshal(rec)
	}
	head := *rec
	head.Wire = nil
	body, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	body = append(body[:len(body)-1], `,"wire":`...)
	if body, err = rec.Wire.AppendJSON(body); err != nil {
		return nil, err
	}
	return append(body, '}'), nil
}

// sync makes every append so far durable.
func (w *jobWAL) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("server: journal: sync: %w", err)
	}
	return nil
}

func (w *jobWAL) close() {
	if w != nil && w.f != nil {
		_ = w.f.Close()
	}
}

// walReplay is one journal chain's parsed content.
type walReplay struct {
	records []walRecord
	// tornTail marks a damaged final line of the final segment: a crash
	// mid-append of a record nobody was ever promised. Dropped, not
	// fatal.
	tornTail bool
	// corrupt is non-nil when a damaged line has valid records after it
	// — disk corruption, not a torn append. The job must fail.
	corrupt error
	// stale lists segments below the replay base (a renamed checkpoint
	// made them redundant before the crash could unlink them); recovery
	// tidies them.
	stale []string
}

// readWAL parses one job's journal chain, classifying damage per the
// torn-tail vs mid-file-corruption rules above, and selects the replay
// base: the highest segment opening with a submit or checkpoint
// record. Segments below the base are superseded — listed for tidying,
// never replayed.
func (d *walDir) readWAL(jobID string) (walReplay, error) {
	segs, err := d.segments(jobID)
	if err != nil {
		return walReplay{}, err
	}
	if len(segs) == 0 {
		return walReplay{}, fmt.Errorf("server: journal: %s: %w", jobID, os.ErrNotExist)
	}
	var rep walReplay
	perSeg := make([][]walRecord, len(segs))
scan:
	for si, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return walReplay{}, fmt.Errorf("server: journal: %w", err)
		}
		lines := bytes.Split(data, []byte("\n"))
		for i, line := range lines {
			if len(line) == 0 {
				continue // the split artifact after the final newline (or empty file)
			}
			rec, perr := parseWALLine(line)
			if perr != nil {
				// Damage is a torn tail iff it is the last content of the
				// last segment; sealed segments were fully synced, so
				// damage anywhere else is the disk lying.
				torn := si == len(segs)-1
				if torn {
					for _, rest := range lines[i+1:] {
						if len(rest) > 0 {
							torn = false
							break
						}
					}
				}
				if !torn {
					rep.corrupt = fmt.Errorf("journal %s: line %d: %w (valid records follow — mid-file corruption)",
						filepath.Base(seg.path), i+1, perr)
					return rep, nil
				}
				rep.tornTail = true
				break scan
			}
			perSeg[si] = append(perSeg[si], rec)
		}
	}
	base := 0
	for i := len(segs) - 1; i >= 0; i-- {
		if len(perSeg[i]) > 0 {
			t := perSeg[i][0].Type
			if t == walSubmit || t == walCheckpoint {
				base = i
				break
			}
		}
	}
	for i := 0; i < base; i++ {
		rep.stale = append(rep.stale, segs[i].path)
	}
	for i := base; i < len(segs); i++ {
		rep.records = append(rep.records, perSeg[i]...)
	}
	return rep, nil
}

// parseWALLine validates one line's framing and checksum and returns
// its record.
func parseWALLine(line []byte) (walRecord, error) {
	var rec walRecord
	rest, ok := bytes.CutPrefix(line, []byte(walFormatPrefix+" "))
	if !ok {
		return rec, fmt.Errorf("bad frame prefix")
	}
	if len(rest) < 9 || rest[8] != ' ' {
		return rec, fmt.Errorf("bad checksum frame")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(rest[:8]), "%08x", &want); err != nil {
		return rec, fmt.Errorf("bad checksum: %v", err)
	}
	body := rest[9:]
	if got := crc32.ChecksumIEEE(body); got != want {
		return rec, fmt.Errorf("checksum mismatch: line says %08x, content is %08x", want, got)
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return rec, fmt.Errorf("checksum valid but record unparseable: %v", err)
	}
	if rec.Type == "" {
		return rec, fmt.Errorf("record has no type")
	}
	return rec, nil
}
