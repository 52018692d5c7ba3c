package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hmc/internal/backend"
	"hmc/internal/core"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
)

// The tests in this file pin the service's persisted and wire formats —
// job files, legacy journal records, HTTP submit bodies and verdicts.json
// keys — through entry points that do not depend on the Go shape of the
// request types, so files written by earlier daemons keep loading
// unchanged.

// readJSONFile decodes one JSON object file.
func readJSONFile(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// persistedKeys lists the cache keys of dir/verdicts.json.
func persistedKeys(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, verdictFile))
	if err != nil {
		t.Fatal(err)
	}
	var vf verdictFileJSON
	if err := json.Unmarshal(data, &vf); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(vf.Verdicts))
	for i, v := range vf.Verdicts {
		keys[i] = v.Key
	}
	return keys
}

// TestWireJournalSubmitRecordReplays: a submit record in the legacy
// journal format carrying every job field imports into a spec file key
// for key (less the record type), and replays to the same job — its
// bounds reach the explorer (the execution cap truncates the run) and its
// cache key is the one verdicts.json has always been keyed by.
func TestWireJournalSubmitRecordReplays(t *testing.T) {
	dir := t.TempDir()
	rec := fmt.Sprintf(`{"type":"submit","schema":%d,"id":"job-000007","test":"IRIW","model":"tso",`+
		`"max_executions":5,"max_events":40,"memory_budget":1099511627776,"workers":2,"symmetry":true,"timeout_ms":60000}`,
		core.SchemaVersion)
	if err := os.WriteFile(filepath.Join(dir, "journal-000000001.jsonl"), []byte(rec+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Import re-marshals the live submit record into its spec file: it
	// must come back with exactly the keys and values it went in with.
	_, _, stats, err := openStore(dir, journalHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.liveJobs != 1 {
		t.Fatalf("liveJobs = %d, want 1", stats.liveJobs)
	}
	var want map[string]any
	if err := json.Unmarshal([]byte(rec), &want); err != nil {
		t.Fatal(err)
	}
	delete(want, "type")
	if got := readJSONFile(t, filepath.Join(dir, "job-000007.json")); !reflect.DeepEqual(got, want) {
		t.Fatalf("imported spec file changed:\ngot  %v\nwant %v", got, want)
	}

	s := mustNew(t, Config{Workers: 1, JournalDir: dir, CrashDir: filepath.Join(dir, "crashes")})
	for deadline := time.Now().Add(30 * time.Second); !s.Ready(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("service never became ready")
		}
	}
	done := waitState(t, s, "job-000007")
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Result == nil {
		t.Fatalf("replayed job finished %s (%s), want done with a result", done.State, done.Err)
	}
	if done.Model != "tso" || done.Result.Executions != 5 || done.Result.TruncatedReason != core.TruncMaxExecutions {
		t.Fatalf("replayed job lost its bounds: model=%s executions=%d truncated=%q",
			done.Model, done.Result.Executions, done.Result.TruncatedReason)
	}
	wantKey := done.Fingerprint + "|tso|max=5|maxev=40|symm=true"
	if keys := persistedKeys(t, dir); len(keys) != 1 || keys[0] != wantKey {
		t.Fatalf("persisted cache keys = %q, want [%q]", keys, wantKey)
	}
}

// TestWireJournalRecordKeys: the spec file stored for an HTTP body
// carries exactly the job keys the body set (an empty "source" is not
// one) plus id and schema — the legacy submit record's keys less "type" —
// and a stored checkpoint is byte for byte Checkpoint.Encode's output.
func TestWireJournalRecordKeys(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{Workers: 1, JournalDir: dir, CrashDir: filepath.Join(dir, "crashes")})
	ts := httptest.NewServer(s.Handler())
	// A long job holds the only worker, so the posted job stays queued
	// and its spec file on disk until the blocker is cancelled.
	blocker := submitSource(t, s, manyExecsSource, "sc", 0)
	body := `{"source":"","test":"SB","model":"tso","max_executions":3,"max_events":40,` +
		`"memory_budget":1099511627776,"workers":2,"symmetry":true,"timeout_ms":60000}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
	}
	spec := readJSONFile(t, filepath.Join(dir, job.ID+".json"))
	s.Cancel(blocker.ID)
	waitState(t, s, job.ID)
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	want := []string{"id", "max_events", "max_executions", "memory_budget", "model", "schema",
		"symmetry", "test", "timeout_ms", "workers"}
	if got := sortedKeys(spec); !reflect.DeepEqual(got, want) {
		t.Errorf("spec file keys = %v, want %v", got, want)
	}
	if spec["test"] != "SB" || spec["model"] != "tso" || spec["max_executions"] != 3.0 ||
		spec["max_events"] != 40.0 || spec["memory_budget"] != 1099511627776.0 ||
		spec["workers"] != 2.0 || spec["symmetry"] != true || spec["timeout_ms"] != 60000.0 {
		t.Errorf("spec file values changed: %v", spec)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "job-*")); len(left) != 0 {
		t.Errorf("finished jobs left files behind: %q", left)
	}

	// A checkpoint, written straight through the store.
	var cp *core.Checkpoint
	_, err = core.Explore(mustTest(t, "IRIW"), core.Options{
		Model: memmodel.TSO{},
		Checkpoint: &core.CheckpointOptions{EveryExecs: 1, Sink: func(c *core.Checkpoint) {
			if cp == nil {
				cp = c
			}
		}},
	})
	if err != nil || cp == nil {
		t.Fatalf("checkpointed run: err %v, checkpoint %v", err, cp != nil)
	}
	dir2 := t.TempDir()
	st, _, _, err := openStore(dir2, journalHooks{})
	if err != nil {
		t.Fatal(err)
	}
	st.submit("job-000009", JobSpec{Test: "IRIW", Spec: backend.Spec{Model: "tso"}})
	if !st.checkpoint("job-000009", cp) {
		t.Fatal("checkpoint not stored")
	}
	encoded, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir2, "job-000009.ckpt")); err != nil || !bytes.Equal(got, encoded) {
		t.Fatalf("stored checkpoint differs from Checkpoint.Encode (err %v)", err)
	}
}

// TestWireHTTPSubmitBodies: bodies that name both program keys with one
// of them empty (as generic clients send them) are accepted; analyses
// and bounds the service does not run are not wire keys and get 400.
func TestWireHTTPSubmitBodies(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CrashDir: filepath.Join(t.TempDir(), "crashes")})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	src := strings.ReplaceAll(litmusSB, "\n", `\n`)
	cases := []struct {
		name, body string
		want       int
	}{
		{"test with empty source", `{"test":"SB","source":"","model":"sc"}`, http.StatusAccepted},
		{"source with empty test", `{"test":"","source":"` + src + `","model":"tso"}`, http.StatusAccepted},
		{"check_races", `{"test":"SB","model":"sc","check_races":true}`, http.StatusBadRequest},
		{"check_liveness", `{"test":"SB","model":"sc","check_liveness":true}`, http.StatusBadRequest},
		{"max_steps", `{"test":"SB","model":"sc","max_steps":10}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck // status is the assertion
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.want, out)
		}
	}
}

const litmusSB = `name SB
T0: W x 1 ; r0 = R y
T1: W y 1 ; r1 = R x
exists T0:r0=0 & T1:r1=0
`

// TestWireVerdictFileKeys: verdicts.json written by an earlier daemon —
// keyed fingerprint|model|max=N|maxev=N|symm=B — still answers the same
// submission from cache, and a fresh verdict is persisted under that
// exact key.
func TestWireVerdictFileKeys(t *testing.T) {
	dir := t.TempDir()
	sb, err := litmus.Parse(litmusSB)
	if err != nil {
		t.Fatal(err)
	}
	fp := sb.Fingerprint()
	old := fmt.Sprintf(`{"schema":%d,"verdicts":[{"key":%q,"stats":{"Executions":3,"ExistsCount":0}}]}`,
		core.SchemaVersion, fp+"|sc|max=0|maxev=0|symm=false")
	if err := os.WriteFile(filepath.Join(dir, verdictFile), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Workers: 1, JournalDir: dir, CrashDir: filepath.Join(dir, "crashes")})
	ts := httptest.NewServer(s.Handler())
	post := func(body string) (int, map[string]any) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	src := strings.ReplaceAll(litmusSB, "\n", `\n`)
	code, hit := post(`{"source":"` + src + `","model":"sc"}`)
	if code != http.StatusOK || hit["cache_hit"] != true {
		t.Fatalf("persisted verdict not served: status %d, %v", code, hit)
	}

	code, miss := post(`{"source":"` + src + `","model":"tso","max_executions":2,"max_events":30,"symmetry":true,"workers":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("fresh submit: status %d, %v", code, miss)
	}
	id, _ := miss["id"].(string)
	waitState(t, s, id)
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	keys := persistedKeys(t, dir)
	sort.Strings(keys)
	want := []string{fp + "|sc|max=0|maxev=0|symm=false", fp + "|tso|max=2|maxev=30|symm=true"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("persisted keys = %q, want %q", keys, want)
	}
}
