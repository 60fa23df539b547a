package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"ipcp/internal/core"
	"ipcp/internal/experiments"
)

// benchRunBody is, byte for byte, what the repository benchmark POSTs to
// /v1/runs (benchmark/daemons.go).
const benchRunBody = `{"workloads":["lbm-94"],"l1d":"ipcp","l2":"ipcp","seed":7}`

// TestRunRequestWireGolden: the request is the spec plus a timeout, and
// its bytes are the ones clients already send.
func TestRunRequestWireGolden(t *testing.T) {
	for _, body := range []string{
		benchRunBody,
		`{"workloads":["mcf-994","lbm-94"],"cores":2,"l1d":"mlop","l2":"nl","llc":"nl-miss","llc_repl":"ship","dram_gbps":25.6,` +
			`"l1_pq":4,"l1_mshr":8,"l1d_ways":8,"l2_sets":512,"llc_sets_per_core":1024,"seed":3,"timeout_ms":1500}`,
	} {
		var req RunRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if out, _ := json.Marshal(req); string(out) != body {
			t.Errorf("re-encoded\n %s\nwant\n %s", out, body)
		}
	}
	// The retired identity label is ignored, not refused, and no longer
	// makes a second run out of the same content.
	var plain, labelled RunRequest
	json.Unmarshal([]byte(benchRunBody), &plain)
	if err := json.Unmarshal([]byte(strings.Replace(benchRunBody, `"seed"`, `"config_key":"mine","seed"`, 1)), &labelled); err != nil {
		t.Fatal(err)
	}
	if labelled.Validate() != nil || labelled.Key() != plain.Key() {
		t.Errorf("labelled body: key %s, want %s", labelled.Key(), plain.Key())
	}
}

// TestVariantRunsOverHTTP: an IPCP variant is data, so it crosses the
// wire — the daemon returns what the in-process abl-degree point
// computes — and a malformed one is a 400, not a queued failing job.
func TestVariantRunsOverHTTP(t *testing.T) {
	s := newTestServer(t, Options{})
	resp, body := s.postRaw(t, "/v1/runs", `{"workloads":["mcf-994"],"l2":"ipcp","ipcp_l1":{"degree_cplx":4}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST variant = %d (%s)", resp.StatusCode, body)
	}
	var sub submitView
	json.Unmarshal(body, &sub)
	job := s.await(t, sub.ID, 30*time.Second)
	if job.Status != StateDone || job.Spec == nil || job.Spec.IPCPL1 == nil || job.Spec.IPCPL1.DegreeCPLX != 4 {
		t.Fatalf("variant job = %+v", job)
	}

	cfg := core.DefaultL1Config()
	cfg.DegreeCPLX = 4 // abl-degree's "degree 4" row
	want, err := experiments.NewSession(tiny).Run(experiments.RunSpec{Workloads: []string{"mcf-994"}, L2: "ipcp", IPCPL1: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(job.Result)
	if wantJSON, _ := json.Marshal(want); string(got) != string(wantJSON) {
		t.Errorf("daemon's variant result differs from the in-process one")
	}
	dflt, _ := experiments.NewSession(tiny).Run(experiments.RunSpec{Workloads: []string{"mcf-994"}, L1D: "ipcp", L2: "ipcp"})
	if dfltJSON, _ := json.Marshal(dflt); string(got) == string(dfltJSON) {
		t.Errorf("degree 4 ran as the default IPCP")
	}

	for name, variant := range map[string]string{
		"shift out of range":   `{"region_bits":99}`,
		"host-sized table":     `{"ip_table_entries":1073741824}`,
		"not a permutation":    `{"priority":["CS","CS","GS","NL"]}`,
		"unknown class":        `{"priority":["CS","XS","GS","NL"]}`,
		"beside another l1d":   `{}`,
		"cspt without its sig": `{"cspt_entries":256}`,
	} {
		l1d := ""
		if name == "beside another l1d" {
			l1d = "spp"
		}
		resp, body := s.postRaw(t, "/v1/runs", `{"workloads":["mcf-994"],"l1d":"`+l1d+`","ipcp_l1":`+variant+`}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
	if m := s.Metrics(); m.Jobs.Admitted != 1 {
		t.Errorf("admitted %d jobs, want only the valid variant", m.Jobs.Admitted)
	}
}

// FuzzRunRequest: whatever bytes arrive, decoding and validating never
// panic — and validating means assembling the sim.Config (RunSpec.Config)
// and putting it through the simulator's own Validate, so that leg runs
// on every input that gets that far. Whatever validates has an identity
// (Key, WarmupKey) that survives its own re-encoding. And because a
// submission is coalesced by Key before it is validated, a body and its
// normalised form (the spec its Key decodes to) validate alike.
func FuzzRunRequest(f *testing.F) {
	f.Add([]byte(benchRunBody))
	f.Add([]byte(`{"l1d":["","nl","ipstride","ipcp","spp","bop"],"l2":["","ipcp"],"seed":7,"workloads":["mcf-994","lbm-94","gcc-2226","bwaves-2931"]}`))
	f.Add([]byte(`{"workloads":["mcf-994"],"l2":"ipcp","ipcp_l1":{"degree_cplx":4,"signature_bits":9,"cspt_entries":512,"priority":["CS","GS","CPLX","NL"]}}`))
	f.Add([]byte(`{"workloads":["lbm-94","mcf-994"],"l1d":"ipstride@l2","llc_sets_per_core":1024,"timeout_ms":5}`))
	f.Add([]byte(`{"workloads":["mcf-994"],"l1d":"none","ipcp_l1":{"degree_gs":4}}`))
	f.Add([]byte(`{"workloads":["mcf-994"],"l1d":"spp","ipcp_l1":{}}`))
	f.Add([]byte(`{"workloads":["mcf-994"],"ipcp_l1":{"degree_gs":4,"no_such_knob":1}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		var norm experiments.RunSpec
		if err := json.Unmarshal([]byte(req.Key()), &norm); err != nil {
			t.Fatalf("key %s does not decode: %v", req.Key(), err)
		}
		if valid, normValid := req.RunSpec.Validate() == nil, norm.Validate() == nil; valid != normValid {
			t.Fatalf("%s validates %v, its normalised form %s validates %v", body, valid, req.Key(), normValid)
		}
		if req.Validate() != nil {
			return
		}
		key, wkey := req.Key(), experiments.WarmupKey(tiny, req.RunSpec)
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("valid request does not re-encode: %v", err)
		}
		var again RunRequest
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("re-encoded request does not decode: %v (%s)", err, out)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("re-encoded request does not validate: %v (%s)", err, out)
		}
		if again.Key() != key || experiments.WarmupKey(tiny, again.RunSpec) != wkey {
			t.Fatalf("identity moved across a re-encode:\n %s\n %s", key, again.Key())
		}
	})
}
