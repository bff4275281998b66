package server_test

// Wire v2 on the coordinator: uploads carry final dataset lines, the
// upload handler checks them against the plan before anything is
// journaled, and a journal holding a v1 wire (decoded traces, written
// by an earlier build) fails its job instead of merging.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/server"
)

// withLine returns a copy of w whose line i is replaced.
func withLine(w *campaign.ShardResultWire, i int, line string) *campaign.ShardResultWire {
	c := *w
	c.Lines = append([]json.RawMessage(nil), w.Lines...)
	c.Lines[i] = json.RawMessage(line)
	return &c
}

// TestResultUploadLineGuards: a result whose lines do not fit the plan
// slot it was posted to is a 400 result_invalid, the shard stays
// serviceable, and the valid upload still completes an exact dataset.
func TestResultUploadLineGuards(t *testing.T) {
	_, client, _ := newLeaseServer(t)
	ctx := context.Background()
	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := client.Claim(ctx, job.ID, "w", 1000)
	if err != nil {
		t.Fatal(err)
	}
	wires := execWires(t, distSpec, claim.SpecHash)
	sh := claim.Shards[1]
	good := wires[sh.Index]
	first := string(good.Lines[0])

	extra := *good
	extra.Lines = append(append([]json.RawMessage(nil), good.Lines...), good.Lines[0])
	extra.Stats.Traces++
	renamed := *good
	renamed.Vantage = wires[0].Vantage
	for name, bad := range map[string]*campaign.ShardResultWire{
		"one line too many":     &extra,
		"line is not an object": withLine(good, 0, `"just a string"`),
		"index of shard 0":      withLine(good, 0, strings.Replace(first, fmt.Sprintf(`"index":%d,`, sh.Index), `"index":0,`, 1)),
		"vantage of shard 0":    &renamed,
		"other vantage in line": withLine(good, 0, strings.Replace(first, good.Vantage, wires[0].Vantage, 1)),
	} {
		_, err := client.PushShardResult(ctx, job.ID, sh.Index, "w", sh.Lease, bad)
		if ae, ok := err.(*apiclient.APIError); !ok || ae.Status != 400 || ae.Code != "result_invalid" {
			t.Errorf("%s: upload = %v, want 400 result_invalid", name, err)
		}
	}
	for _, s := range claim.Shards {
		if ack, err := client.PushShardResult(ctx, job.ID, s.Index, "w", s.Lease, wires[s.Index]); err != nil || ack.Status != "accepted" {
			t.Fatalf("upload shard %d = %+v, %v", s.Index, ack, err)
		}
	}
	wantDatasetMatch(t, client, job.ID)
}

// TestOversizedGzipBodyRejected: a gzip body that inflates past the
// route's budget is a 400, and its trailer's claimed length buys no
// allocation beyond what the compressed bytes could expand to.
func TestOversizedGzipBodyRejected(t *testing.T) {
	_, ts, client := startCrashServer(t, t.TempDir(), newFakeClock())
	job, _, err := client.SubmitRaw(context.Background(), []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	var bomb bytes.Buffer
	zw := gzip.NewWriter(&bomb)
	if _, err := zw.Write(make([]byte, 2<<20)); err != nil { // claim route budget is 1 MiB
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs/"+job.ID+"/shards/claim", &bomb)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 || !bytes.Contains(body, []byte("limit")) {
		t.Fatalf("gzip bomb = %d %s, want 400 naming the limit", resp.StatusCode, body)
	}
}

// TestLyingContentLengthBuysNoBuffer: a result upload whose header
// claims the route's whole 256 MiB budget but whose body is a few
// bytes is a 400, and the header alone reserves only bodyio's small
// presize cap — plain or declared gzip — not the claimed length.
func TestLyingContentLengthBuysNoBuffer(t *testing.T) {
	srv, _, client := startCrashServer(t, t.TempDir(), newFakeClock())
	job, _, err := client.SubmitRaw(context.Background(), []byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	for _, encoding := range []string{"", "gzip"} {
		req := httptest.NewRequest("POST", "/v1/jobs/"+job.ID+"/shards/0/result", strings.NewReader(`{"v":2`))
		req.ContentLength = 256 << 20 // the result route's budget
		req.Header.Set("Content-Encoding", encoding)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != 400 {
			t.Fatalf("encoding %q: truncated upload = %d %s, want 400", encoding, rec.Code, rec.Body)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
			t.Errorf("encoding %q: a lying Content-Length cost %d MiB of allocation, want a few", encoding, got>>20)
		}
	}
}

// FuzzShardResultUpload throws arbitrary bodies — plain or declared
// gzip — at the result route of a plan slot under a live lease. Every
// response must be 200 or a structured 4xx (never a 5xx, never a
// panic), and since only one of the plan's shards is ever posted to,
// the job must never merge.
func FuzzShardResultUpload(f *testing.F) {
	srv, err := server.New(server.Config{
		DataDir:  f.TempDir(),
		Jobs:     1,
		LeaseTTL: time.Hour,
		Clock:    newFakeClock().Now,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	f.Cleanup(ts.Close)
	client := apiclient.New(ts.URL)
	ctx := context.Background()
	job, _, err := client.SubmitRaw(ctx, []byte(distSpec))
	if err != nil {
		f.Fatal(err)
	}
	claim, err := client.Claim(ctx, job.ID, "w", 1000)
	if err != nil || len(claim.Shards) < 2 {
		f.Fatalf("claim = %+v, %v; want at least two shards", claim, err)
	}
	sh := claim.Shards[0]
	spec, err := campaign.ParseSpec([]byte(distSpec))
	if err != nil {
		f.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		f.Fatal(err)
	}
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		f.Fatal(err)
	}
	good, err := campaign.ExecuteShard(cfg, bp, sh.Shard, sh.Slice)
	if err != nil {
		f.Fatal(err)
	}
	good.SpecHash = claim.SpecHash
	body := func(w *campaign.ShardResultWire) []byte {
		raw, err := json.Marshal(map[string]any{"worker": "w", "lease": sh.Lease, "result": w})
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	valid := body(good)
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(valid)
	zw.Close()
	first := string(good.Lines[0])
	short := *good
	short.Lines = nil

	f.Add(valid, false)
	f.Add(zipped.Bytes(), true)
	f.Add([]byte("this is not gzip"), true)
	f.Add(zipped.Bytes()[:zipped.Len()/2], true)
	f.Add(valid[:len(valid)/2], false)
	f.Add(body(&short), false)
	f.Add(body(withLine(good, 0, `[1,2]`)), false)
	f.Add(body(withLine(good, 0, strings.Replace(first, `"index":0,`, `"index":7,`, 1))), false)
	f.Add(body(withLine(good, 0, strings.Replace(first, good.Vantage, "elsewhere", 1))), false)
	f.Add([]byte(`{"worker":"w","lease":"`+sh.Lease+`","result":{"v":1,"traces":[]}}`), false)

	url := fmt.Sprintf("%s/v1/jobs/%s/shards/%d/result", ts.URL, job.ID, sh.Index)
	f.Fuzz(func(t *testing.T, raw []byte, gz bool) {
		req, err := http.NewRequest("POST", url, bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if gz {
			req.Header.Set("Content-Encoding", "gzip")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == 200:
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			var env struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if json.Unmarshal(out, &env) != nil || env.Error.Code == "" {
				t.Fatalf("%d without a structured error: %s", resp.StatusCode, out)
			}
		default:
			t.Fatalf("upload = %d %s, want 200 or a 4xx", resp.StatusCode, out)
		}
		got, err := client.Job(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != "running" || got.ShardsDone > 1 {
			t.Fatalf("job = %s with %d shards done after uploads to one shard", got.State, got.ShardsDone)
		}
	})
}

// walFrame frames one journal record the way the coordinator writes
// it: "w1 <crc32-hex8> <json>\n".
func walFrame(t *testing.T, rec any) []byte {
	t.Helper()
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Appendf(nil, "w1 %08x %s\n", crc32.ChecksumIEEE(body), body)
}

// v1Wire is shard 0's result in the version-1 wire form an earlier
// build journaled: decoded traces with per-shard indices.
func v1Wire(t *testing.T, w *campaign.ShardResultWire) map[string]any {
	t.Helper()
	traces := make([]json.RawMessage, len(w.Lines))
	copy(traces, w.Lines)
	return map[string]any{
		"v": 1, "spec_hash": w.SpecHash, "shard": w.Shard, "slice": w.Slice,
		"vantage": w.Vantage, "traces": traces, "servers": w.Servers, "stats": w.Stats,
	}
}

// TestRecoveryRejectsV1Wire: a journal whose accepted result — as a
// result record or inside a checkpoint — is a v1 wire recovers as a
// failed job naming the wire version: job_failed on every artifact
// route, never a panic, never a merge.
func TestRecoveryRejectsV1Wire(t *testing.T) {
	for _, form := range []string{"result-record", "checkpoint"} {
		t.Run(form, func(t *testing.T) {
			dir := t.TempDir()
			fc := newFakeClock()
			ctx := context.Background()
			_, ts1, c1 := startCrashServer(t, dir, fc)
			job, _, err := c1.SubmitRaw(ctx, []byte(distSpec))
			if err != nil {
				t.Fatal(err)
			}
			claim, err := c1.Claim(ctx, job.ID, "wA", 1000)
			if err != nil {
				t.Fatal(err)
			}
			ts1.Close()
			wires := execWires(t, distSpec, claim.SpecHash)
			old := v1Wire(t, wires[0])

			path := walPath(dir, job.ID)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var submit struct {
				Spec json.RawMessage `json:"spec"`
			}
			if err := json.Unmarshal(bytes.SplitN(bytes.SplitN(data, []byte("\n"), 2)[0], []byte(" "), 3)[2], &submit); err != nil {
				t.Fatal(err)
			}
			switch form {
			case "result-record":
				data = append(data, walFrame(t, map[string]any{
					"t": "result", "idx": 0, "worker": "wA", "token": claim.Shards[0].Lease, "wire": old,
				})...)
			case "checkpoint":
				shards := make([]map[string]any, len(claim.Shards))
				for i := range shards {
					shards[i] = map[string]any{"state": "pending"}
				}
				shards[0] = map[string]any{"state": "done", "worker": "wA", "wire": old}
				snap, err := json.Marshal(map[string]any{"key": job.Key, "spec": submit.Spec, "shards": shards})
				if err != nil {
					t.Fatal(err)
				}
				var zipped bytes.Buffer
				zw := gzip.NewWriter(&zipped)
				zw.Write(snap)
				zw.Close()
				data = walFrame(t, map[string]any{
					"t": "checkpoint", "job": job.ID, "key": job.Key,
					"snap": base64.StdEncoding.EncodeToString(zipped.Bytes()),
				})
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			_, _, c2 := startCrashServer(t, dir, fc)
			got, err := c2.Job(ctx, job.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got.State != "failed" || !strings.Contains(got.Error, "wire version 1") {
				t.Fatalf("recovered job = %s (%q), want failed naming wire version 1", got.State, got.Error)
			}
			_, err = c2.JobDataset(ctx, job.ID)
			wantCode(t, err, 502, "job_failed")
		})
	}
}
