package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/nodehost"
)

func testServer(t *testing.T, shards int) (*httptest.Server, *gateway.Gateway) {
	t.Helper()
	params, err := lds.NewParams(4, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{Shards: shards, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(gw, 30*time.Second))
	t.Cleanup(func() {
		srv.Close()
		gw.Close()
	})
	return srv, gw
}

// TestMigrationRebalanceEndToEnd drives the full HTTP surface: write keys,
// resize the ring through POST /v1/rebalance, migrate one key explicitly,
// and confirm values and the stats gauges survive it all.
func TestMigrationRebalanceEndToEnd(t *testing.T) {
	srv, gw := testServer(t, 2)

	put := func(key, value string) {
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/kv/"+key, strings.NewReader(value))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT %s: status %d", key, resp.StatusCode)
		}
		if resp.Header.Get("X-LDS-Tag") == "" {
			t.Fatalf("PUT %s: missing X-LDS-Tag", key)
		}
	}
	get := func(key string) (string, string) {
		resp, err := http.Get(srv.URL + "/v1/kv/" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", key, resp.StatusCode)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String(), resp.Header.Get("X-LDS-Shard")
	}
	postRebalance := func(body string, wantStatus int) rebalanceResponse {
		resp, err := http.Post(srv.URL+"/v1/rebalance", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST /v1/rebalance %q: status %d, want %d", body, resp.StatusCode, wantStatus)
		}
		var out rebalanceResponse
		if wantStatus == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	const keys = 12
	for i := 0; i < keys; i++ {
		put(fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%02d", i))
	}

	// Resize 2 → 3 through the API.
	out := postRebalance(`{"shards": 3}`, http.StatusOK)
	if out.Action != "resize" || out.Shards != 3 || out.RingVersion != 1 {
		t.Fatalf("resize response: %+v", out)
	}
	if gw.Shards() != 3 {
		t.Fatalf("gateway has %d shards after resize", gw.Shards())
	}
	for i := 0; i < keys; i++ {
		v, _ := get(fmt.Sprintf("key-%02d", i))
		if v != fmt.Sprintf("value-%02d", i) {
			t.Fatalf("key-%02d = %q after resize", i, v)
		}
	}

	// Explicit single-key migration.
	target := (gw.ShardFor("key-00") + 1) % 3
	out = postRebalance(fmt.Sprintf(`{"key": "key-00", "to": %d}`, target), http.StatusOK)
	if out.Action != "migrate" {
		t.Fatalf("migrate response: %+v", out)
	}
	if v, shard := get("key-00"); v != "value-00" || shard != fmt.Sprint(target) {
		t.Fatalf("key-00 after explicit migration: value %q on shard %s, want value-00 on %d", v, shard, target)
	}

	// Auto hot-key spread: empty body plans from live stats (may be a
	// no-op on a balanced system, but must succeed).
	out = postRebalance("", http.StatusOK)
	if out.Action != "spread" {
		t.Fatalf("spread response: %+v", out)
	}

	// Bad target is a client error.
	postRebalance(`{"key": "key-00", "to": 99}`, http.StatusInternalServerError)
	// A shard count out of range is refused before anything changes (the
	// stats below still read ring version 1 and 3 shards).
	postRebalance(`{"shards": 2000}`, http.StatusBadRequest)
	postRebalance(`{"shards": -1}`, http.StatusBadRequest)

	// Stats expose the routing epoch and recycling gauges.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.RingVersion != 1 || stats.Resizing || len(stats.Shards) != 3 {
		t.Fatalf("stats after resize: ring_version=%d resizing=%v shards=%d",
			stats.RingVersion, stats.Resizing, len(stats.Shards))
	}
	if stats.NamespacesFree == 0 {
		t.Error("stats report no recycled namespaces after a drain + migration")
	}
	var totalKeys int
	for _, s := range stats.Shards {
		totalKeys += s.Keys
	}
	if totalKeys != keys {
		t.Fatalf("stats count %d keys, want %d", totalKeys, keys)
	}
}

// TestTopologyHTTPEndToEnd serves a topology-configured gateway (one TCP
// shard over two in-process node hosts, one sim shard) through the full
// HTTP front door: kv traffic over both backends, backend labels in
// /v1/stats, node health in /v1/nodes, and POST /v1/reprovision.
func TestTopologyHTTPEndToEnd(t *testing.T) {
	hosts := make([]*nodehost.Host, 2)
	specs := make([]gateway.NodeSpec, 2)
	for i := range hosts {
		h, err := nodehost.New("127.0.0.1:0", int32(i+1), nodehost.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		hosts[i] = h
		specs[i] = gateway.NodeSpec{ID: h.NodeID(), Addr: h.Addr()}
	}
	params, err := lds.NewParams(4, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{
		Params: params,
		Topology: &gateway.Topology{
			Shards: []gateway.ShardSpec{
				{Backend: gateway.BackendTCP, Nodes: specs},
				{Backend: gateway.BackendSim},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(gw, 30*time.Second))
	t.Cleanup(func() {
		srv.Close()
		gw.Close()
	})

	client := srv.Client()
	for i := 0; i < 6; i++ {
		key, value := fmt.Sprintf("topo-%d", i), fmt.Sprintf("v-%d", i)
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/kv/"+key, strings.NewReader(value))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT %s: %d", key, resp.StatusCode)
		}
		got, err := client.Get(srv.URL + "/v1/kv/" + key)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(got.Body)
		got.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != value {
			t.Fatalf("GET %s = %q, want %q", key, body, value)
		}
	}

	var stats struct {
		Shards []struct {
			Backend        string `json:"Backend"`
			Keys           int    `json:"Keys"`
			PermanentBytes int64  `json:"PermanentBytes"`
		} `json:"shards"`
	}
	readStats := func() {
		t.Helper()
		resp, err := client.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	readStats()
	if len(stats.Shards) != 2 || stats.Shards[0].Backend != "tcp" || stats.Shards[1].Backend != "sim" {
		t.Fatalf("stats backends wrong: %+v", stats.Shards)
	}
	// The tcp shard's storage gauges are sampled from the node processes
	// by the stats handler; with keys written they must become non-zero
	// (the pre-GroupStats behavior hardcoded 0). The write-to-L2 offload
	// is asynchronous, so allow it a moment to land.
	if stats.Shards[0].Keys > 0 {
		deadline := time.Now().Add(10 * time.Second)
		for stats.Shards[0].PermanentBytes == 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
			readStats()
		}
		if stats.Shards[0].PermanentBytes == 0 {
			t.Errorf("tcp shard holds %d keys but reports zero permanent bytes", stats.Shards[0].Keys)
		}
	}

	var nodes struct {
		Nodes []gateway.NodeStatus `json:"nodes"`
	}
	resp, err := client.Get(srv.URL + "/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(nodes.Nodes) != 2 {
		t.Fatalf("probed %d nodes, want 2", len(nodes.Nodes))
	}
	var nodePerm int64
	for _, n := range nodes.Nodes {
		if !n.Alive {
			t.Errorf("node %d reported dead", n.ID)
		}
		if n.Servers == 0 {
			t.Errorf("node %d reports no servers", n.ID)
		}
		nodePerm += n.PermanentBytes
	}
	if nodePerm == 0 {
		t.Error("node probes report zero permanent bytes after writes")
	}

	resp, err = client.Post(srv.URL+"/v1/reprovision", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/reprovision: %d", resp.StatusCode)
	}
}

// TestNodesEndpointWithoutTopology maps ErrNoTopology onto 404.
func TestNodesEndpointWithoutTopology(t *testing.T) {
	srv, _ := testServer(t, 2)
	resp, err := srv.Client().Get(srv.URL + "/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/nodes without topology: %d, want 404", resp.StatusCode)
	}
}

// TestRemovedFleetFlags: the multi-gateway fleet's flags are gone, and
// each one now stops the binary at parse time with a non-zero exit
// instead of being silently ignored.
func TestRemovedFleetFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping child-process test (needs go build)")
	}
	for _, args := range [][]string{
		{"-peer", "2=127.0.0.1:9001=/tmp/cat-b"},
		{"-lease-dir", t.TempDir()},
		{"-gateway-id", "1"},
		{"-lease-ttl", "3s"},
	} {
		t.Run(args[0], func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, gwBin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || ctx.Err() != nil {
				t.Fatalf("lds-gateway %s: err %v (ctx %v), want exit status 2 at parse time; output:\n%s", args[0], err, ctx.Err(), out)
			}
			if want := "flag provided but not defined: " + args[0]; !strings.Contains(string(out), want) {
				t.Errorf("lds-gateway %s printed %q, want it to contain %q", args[0], out, want)
			}
		})
	}
}

// TestRepairHTTPEndpoints drives the anti-entropy control plane through
// the front door: GET /v1/scrub detects injected bit rot, POST /v1/repair
// heals it, and the repair counters surface in GET /v1/stats.
func TestRepairHTTPEndpoints(t *testing.T) {
	hosts := make([]*nodehost.Host, 2)
	specs := make([]gateway.NodeSpec, 2)
	for i := range hosts {
		h, err := nodehost.New("127.0.0.1:0", int32(i+1), nodehost.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		hosts[i] = h
		specs[i] = gateway.NodeSpec{ID: h.NodeID(), Addr: h.Addr()}
	}
	params, err := lds.NewParams(4, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{
		Params: params,
		Topology: &gateway.Topology{
			Shards: []gateway.ShardSpec{{Backend: gateway.BackendTCP, Nodes: specs}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(gw, 30*time.Second))
	t.Cleanup(func() {
		srv.Close()
		gw.Close()
	})
	client := srv.Client()

	for i := 0; i < 4; i++ {
		key, value := fmt.Sprintf("scrub-%d", i), fmt.Sprintf("v-%d", i)
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/kv/"+key, strings.NewReader(value))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT %s: %d", key, resp.StatusCode)
		}
	}

	type scrubResp struct {
		Clean  bool `json:"clean"`
		Totals struct {
			Corrupt int `json:"corrupt"`
		} `json:"totals"`
		Report struct {
			Groups []struct {
				NS int32 `json:"ns"`
			} `json:"groups"`
		} `json:"report"`
	}
	getScrub := func() scrubResp {
		t.Helper()
		resp, err := client.Get(srv.URL + "/v1/scrub")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/scrub: %d", resp.StatusCode)
		}
		var sr scrubResp
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	// Wait for the offload pipeline to drain, then inject bit rot.
	var settled scrubResp
	deadline := time.Now().Add(60 * time.Second)
	for {
		settled = getScrub()
		if settled.Clean && len(settled.Report.Groups) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scrub never settled clean")
		}
		time.Sleep(50 * time.Millisecond)
	}
	corrupted := false
	for _, g := range settled.Report.Groups {
		for _, h := range hosts {
			if s := h.L2(g.NS, 0); s != nil {
				corrupted = s.CorruptStored()
				break
			}
		}
		if corrupted {
			break
		}
	}
	if !corrupted {
		t.Fatal("corrupted no elements; harness bug")
	}
	if sr := getScrub(); sr.Clean || sr.Totals.Corrupt == 0 {
		t.Fatalf("scrub after corruption: clean=%v corrupt=%d, want dirty", sr.Clean, sr.Totals.Corrupt)
	}

	resp, err := client.Post(srv.URL+"/v1/repair", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr struct {
		Clean  bool `json:"clean"`
		Report struct {
			Repaired int `json:"repaired"`
		} `json:"report"`
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/repair: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !rr.Clean || rr.Report.Repaired == 0 {
		t.Fatalf("repair: clean=%v repaired=%d, want clean with repairs", rr.Clean, rr.Report.Repaired)
	}

	resp, err = client.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Shards []struct {
			RepairScrubs  uint64 `json:"RepairScrubs"`
			RepairedElems uint64 `json:"RepairedElems"`
			RepairBytes   uint64 `json:"RepairBytes"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var scrubs, repaired, bytes uint64
	for _, s := range stats.Shards {
		scrubs += s.RepairScrubs
		repaired += s.RepairedElems
		bytes += s.RepairBytes
	}
	if scrubs == 0 || repaired == 0 || bytes == 0 {
		t.Errorf("stats repair counters scrubs=%d repaired=%d bytes=%d, want all > 0", scrubs, repaired, bytes)
	}
}

// TestRepairEndpointWithoutTopology maps ErrNoTopology onto 404 for the
// repair plane too.
func TestRepairEndpointWithoutTopology(t *testing.T) {
	srv, _ := testServer(t, 2)
	resp, err := srv.Client().Post(srv.URL+"/v1/repair", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/repair without topology: %d, want 404", resp.StatusCode)
	}
}
