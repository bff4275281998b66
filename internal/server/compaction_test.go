package server_test

// Segmented-journal compaction tests: the seal → checkpoint → unlink
// protocol that keeps the journal O(pending), the crash window between
// the checkpoint rename and the stale-chain unlinks, and recovery from
// a checkpoint base plus live tail. Compaction runs on a real
// goroutine, so tests poll for its completion with a deadline; every
// protocol clock is still the stepped fake.

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/failpoint"
	"repro/internal/server"
)

// bigSpec slices every vantage three ways for a 39-shard plan — the
// acceptance floor for journal-boundedness is 32.
const bigSpec = `{"spec": 1, "scale": "small", "traces": 3, "slices_per_vantage": 3,
  "seed": 2015, "stride": 0, "execution": "distributed"}`

// startSegServer opens a coordinator with a tuned journal segment cap
// on an existing data dir; like startCrashServer it registers only
// listener cleanup so tests can crash it.
func startSegServer(t *testing.T, dir string, fc *fakeClock, segBytes int64) (*httptest.Server, *apiclient.Client) {
	t.Helper()
	ts := httptest.NewServer(newSegServer(t, dir, fc, segBytes))
	t.Cleanup(ts.Close)
	return ts, apiclient.New(ts.URL)
}

// newSegServer builds the coordinator startSegServer serves.
func newSegServer(t *testing.T, dir string, fc *fakeClock, segBytes int64) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		DataDir:             dir,
		Jobs:                1,
		LeaseTTL:            30 * time.Second,
		Clock:               fc.Now,
		JournalSegmentBytes: segBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// journalBytes sums the on-disk footprint of one job's journal
// segments.
func journalBytes(t *testing.T, dir, jobID string) int64 {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), jobID+".") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// jobSegments lists one job's journal segment file names, sorted by
// the directory's natural order.
func jobSegments(t *testing.T, dir, jobID string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), jobID+".") {
			names = append(names, e.Name())
		}
	}
	return names
}

// datasetForSpec computes the in-process engine's dataset bytes for an
// arbitrary spec — the byte-identity oracle.
func datasetForSpec(t *testing.T, specJSON string) []byte {
	t.Helper()
	spec, err := campaign.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.Write(&buf, res.Dataset); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// uploadAllButLast claims the whole plan for one worker and uploads
// every shard except the final claimed one, returning the claim and
// wires so the caller can finish (or crash) as it pleases.
func uploadAllButLast(t *testing.T, client *apiclient.Client, jobID string) (apiclient.Claim, []*campaign.ShardResultWire) {
	t.Helper()
	ctx := context.Background()
	claim, err := client.Claim(ctx, jobID, "w1", 100)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, bigSpec, claim.SpecHash)
	for _, s := range claim.Shards[:len(claim.Shards)-1] {
		ack, err := client.PushShardResult(ctx, jobID, s.Index, "w1", s.Lease, wires[s.Index])
		if err != nil || ack.Status != "accepted" {
			t.Fatalf("upload %d = %v %v, want accepted", s.Index, ack, err)
		}
	}
	return claim, wires
}

// TestJournalCompactionBoundsSize is the boundedness acceptance: for a
// 39-shard job with almost all results journaled, the compacted
// (segmented, small cap) journal footprint must stay below half of the
// uncompacted (one giant segment) equivalent.
func TestJournalCompactionBoundsSize(t *testing.T) {
	ctx := context.Background()

	// Baseline: a cap so large nothing ever seals — PR 9's single-file
	// journal, byte for byte.
	baseDir := t.TempDir()
	_, baseClient := startSegServer(t, baseDir, newFakeClock(), 1<<30)
	baseJob, _, err := baseClient.SubmitRaw(ctx, []byte(bigSpec))
	if err != nil {
		t.Fatal(err)
	}
	if baseJob.ShardsTotal < 32 {
		t.Fatalf("plan = %d shards, want >= 32", baseJob.ShardsTotal)
	}
	uploadAllButLast(t, baseClient, baseJob.ID)
	baseline := journalBytes(t, baseDir, baseJob.ID)
	if baseline == 0 {
		t.Fatal("baseline journal is empty")
	}

	// Segmented: a small cap seals and checkpoints throughout the run.
	segDir := t.TempDir()
	_, segClient := startSegServer(t, segDir, newFakeClock(), 2048)
	segJob, _, err := segClient.SubmitRaw(ctx, []byte(bigSpec))
	if err != nil {
		t.Fatal(err)
	}
	uploadAllButLast(t, segClient, segJob.ID)

	// Compaction is asynchronous: poll until the footprint drops under
	// the bound.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if got := journalBytes(t, segDir, segJob.ID); got*2 < baseline {
			t.Logf("journal: segmented %d bytes vs single-file %d bytes", got, baseline)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never compacted below 50%%: segmented %d bytes vs single-file %d bytes (segments %v)",
				journalBytes(t, segDir, segJob.ID), baseline, jobSegments(t, segDir, segJob.ID))
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestRecoveryFromCheckpoint is the recovery matrix over what follows
// the checkpoint at crash time: nothing, or a tail of live records.
// Both must resume without double-counting and finish byte-identical.
func TestRecoveryFromCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail int // uploads issued after the first checkpoint exists
	}{
		{"checkpoint-only", 0},
		{"checkpoint-plus-tail", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			fc := newFakeClock()
			ts1, client1 := startSegServer(t, dir, fc, 2048)

			job, _, err := client1.SubmitRaw(ctx, []byte(bigSpec))
			if err != nil {
				t.Fatal(err)
			}
			claim, err := client1.Claim(ctx, job.ID, "w1", 100)
			if err != nil {
				t.Fatal(err)
			}
			wires := execWires(t, bigSpec, claim.SpecHash)

			// Upload enough to force at least one checkpoint, confirmed
			// via the compaction counter.
			head := len(claim.Shards) - tc.tail - 1
			for _, s := range claim.Shards[:head] {
				if ack, err := client1.PushShardResult(ctx, job.ID, s.Index, "w1", s.Lease, wires[s.Index]); err != nil || ack.Status != "accepted" {
					t.Fatalf("upload %d = %v %v, want accepted", s.Index, ack, err)
				}
			}
			deadline := time.Now().Add(15 * time.Second)
			for {
				text, err := client1.MetricsText(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if v := metricValue(t, text, "repro_journal_compactions_total"); v != "" && v != "0" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("no compaction before deadline")
				}
				time.Sleep(25 * time.Millisecond)
			}
			for _, s := range claim.Shards[head : head+tc.tail] {
				if ack, err := client1.PushShardResult(ctx, job.ID, s.Index, "w1", s.Lease, wires[s.Index]); err != nil || ack.Status != "accepted" {
					t.Fatalf("tail upload %d = %v %v, want accepted", s.Index, ack, err)
				}
			}

			// Crash; restart on the same journal.
			ts1.Close()
			_, client2 := startSegServer(t, dir, fc, 2048)

			resumed, err := client2.Job(ctx, job.ID)
			if err != nil {
				t.Fatal(err)
			}
			want := len(claim.Shards) - 1
			if resumed.State != "running" || resumed.ShardsDone != want {
				t.Fatalf("resumed job = state %s done %d/%d, want running %d done",
					resumed.State, resumed.ShardsDone, resumed.ShardsTotal, want)
			}

			// The pre-crash lease was restored: the last shard lands
			// under its original token and the dataset is byte-identical.
			last := claim.Shards[len(claim.Shards)-1]
			if ack, err := client2.PushShardResult(ctx, job.ID, last.Index, "w1", last.Lease, wires[last.Index]); err != nil || ack.Status != "accepted" {
				t.Fatalf("final upload = %v %v, want accepted", ack, err)
			}
			served, err := client2.JobDataset(ctx, job.ID)
			if err != nil {
				t.Fatal(err)
			}
			if want := datasetForSpec(t, bigSpec); !bytes.Equal(served, want) {
				t.Fatalf("recovered dataset (%d bytes) differs from campaign.Run (%d bytes)", len(served), len(want))
			}
		})
	}
}

// TestCompactionCrashMidSwap arms the server.compact:crash-mid-swap
// failpoint: every compaction dies after the checkpoint rename but
// before the stale-chain unlinks, leaving BOTH the old chain and the
// checkpoint on disk. Recovery must pick the checkpoint, tidy the
// stale chain, and resume without double-counting.
func TestCompactionCrashMidSwap(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fc := newFakeClock()

	var once sync.Once
	hit := make(chan struct{})
	remove := failpoint.SetHook(failpoint.CompactMidSwap, func() error {
		once.Do(func() { close(hit) })
		return errors.New("injected crash mid-swap")
	})
	defer remove()

	srv1 := newSegServer(t, dir, fc, 2048)
	ts1 := httptest.NewServer(srv1)
	t.Cleanup(ts1.Close)
	client1 := apiclient.New(ts1.URL)
	job, _, err := client1.SubmitRaw(ctx, []byte(bigSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, wires := uploadAllButLast(t, client1, job.ID)
	select {
	case <-hit:
	case <-time.After(15 * time.Second):
		t.Fatal("crash-mid-swap failpoint never hit")
	}
	// The compactor aborted between rename and unlink at least once:
	// wait for it to go quiescent, then both the original chain and a
	// checkpoint segment must be on disk.
	barePresent := func() bool {
		_, err := os.Stat(walPath(dir, job.ID))
		return err == nil
	}
	cpPresent := func() bool {
		for _, name := range jobSegments(t, dir, job.ID) {
			if name != job.ID+".wal" {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(15 * time.Second)
	for !cpPresent() {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint segment on disk: %v", jobSegments(t, dir, job.ID))
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !barePresent() {
		t.Fatalf("stale chain unlinked despite failpoint: %v", jobSegments(t, dir, job.ID))
	}

	// Crash, disarm, restart: recovery picks the checkpoint base and
	// tidies the superseded chain below it. A crashed coordinator runs
	// nothing more, but this in-process one still has its compactor
	// goroutine, which could unlink segments while the restarted
	// coordinator replays them. Close stops it first, while the
	// failpoint still aborts every queued compaction mid-swap; the
	// clean-shutdown marker Close leaves changes only a log line.
	ts1.Close()
	srv1.Close()
	remove()
	_, client2 := startSegServer(t, dir, fc, 2048)

	if barePresent() {
		t.Fatalf("recovery left the superseded chain: %v", jobSegments(t, dir, job.ID))
	}
	resumed, err := client2.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := len(claim.Shards) - 1
	if resumed.State != "running" || resumed.ShardsDone != want {
		t.Fatalf("resumed job = state %s done %d/%d, want running %d done",
			resumed.State, resumed.ShardsDone, resumed.ShardsTotal, want)
	}
	last := claim.Shards[len(claim.Shards)-1]
	if ack, err := client2.PushShardResult(ctx, job.ID, last.Index, "w1", last.Lease, wires[last.Index]); err != nil || ack.Status != "accepted" {
		t.Fatalf("final upload = %v %v, want accepted", ack, err)
	}
	served, err := client2.JobDataset(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := datasetForSpec(t, bigSpec); !bytes.Equal(served, want) {
		t.Fatalf("recovered dataset (%d bytes) differs from campaign.Run (%d bytes)", len(served), len(want))
	}
}
