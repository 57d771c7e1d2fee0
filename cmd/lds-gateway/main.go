// Command lds-gateway serves a sharded multi-object LDS store over a
// minimal HTTP front door: one process hosting S shards of independent
// L1/L2 groups (internal/gateway) behind a key-value API, with an online
// rebalancing control plane. Shards run in-process on the simulated
// transport by default; with -topology they can instead run on remote
// lds-node processes over real TCP, mixed freely with sim shards behind
// the same front door.
//
//	lds-gateway -listen :8080 -shards 4 -n1 4 -n2 5 -f1 1 -f2 1
//	lds-gateway -listen :8080 -topology cluster.json -n1 3 -n2 4
//	lds-gateway -listen :8080 -topology cluster.json -catalog /var/lib/lds/catalog
//
// With -catalog the gateway persists its routing plane (key placement,
// group namespaces and incarnations, boot seeds) to a crash-safe
// snapshot+WAL directory, giving it graceful-restart semantics: a
// restarted gateway — clean SIGTERM or SIGKILL alike — reloads the
// catalog, re-adopts the groups its node fleet still holds under their
// persisted generations (healthy nodes keep their state; no boot-seed
// reset), and resumes serving the same keyspace. Without -catalog a
// restart abandons the keyspace, as before. One gateway fronts a node
// fleet; its availability comes from a supervisor restarting it on its
// catalog (docs/OPERATIONS.md has the recipe and the measured restart
// time).
//
//	curl -X PUT --data-binary 'hello' localhost:8080/v1/kv/greeting
//	curl localhost:8080/v1/kv/greeting
//	curl localhost:8080/v1/stats
//	curl -X POST localhost:8080/v1/rebalance                          # plan + apply hot-key moves
//	curl -X POST -d '{"shards": 5}' localhost:8080/v1/rebalance      # resize the ring online
//	curl -X POST -d '{"key": "greeting", "to": 2}' localhost:8080/v1/rebalance
//
// API:
//
//	PUT  /v1/kv/{key}    write the request body; responds with the write's
//	                     tag in X-LDS-Tag and the owning shard in X-LDS-Shard
//	GET  /v1/kv/{key}    read the value; same headers
//	GET  /v1/stats       per-shard JSON: keys, ops, bytes, mean latencies,
//	                     temporary/permanent storage (live for tcp shards
//	                     too, sampled from the nodes), hottest keys, plus
//	                     the routing epoch, namespace-recycling gauges and
//	                     catalog health
//	POST /v1/rebalance   body {}           → plan hot-key moves from the live
//	                                         stats and execute them
//	                     body {"shards":N} → grow/shrink the ring to N shards
//	                                         (live keys drain to their new homes)
//	                     body {"key":K,"to":S} → migrate one key explicitly
//	GET  /v1/nodes       probe every remote node process (topology
//	                     deployments): id, address, liveness, hosted
//	                     groups, control-plane RTT
//	GET  /v1/scrub       sweep every node-held L2 element and report
//	                     missing/stale/corrupt counts per group (read-only)
//	POST /v1/repair      run one anti-entropy pass: reconcile each node
//	                     (re-serve lost group slices), regenerate bad elements (helper path when
//	                     d donors are up, decode-reencode fallback at k),
//	                     and return the full RepairReport; -repair-interval
//	                     runs the same pass on a timer, -repair-rate caps
//	                     its bandwidth
//	POST /v1/reprovision reconcile each node: one request lists the groups
//	                     it holds, and it is served the ones it lacks; run
//	                     it after restarting a node process (see
//	                     docs/OPERATIONS.md)
//
// Without -topology the binary is a self-contained demonstrator and
// load-test target; with it, the same front door drives a real multi-
// process cluster — the full API reference and runbook live in
// docs/OPERATIONS.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/lds-storage/lds/internal/catalog"
	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/transport"
)

// maxValueSize bounds PUT bodies (16 MiB).
const maxValueSize = 16 << 20

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		listen  = flag.String("listen", ":8080", "HTTP listen address")
		shards  = flag.Int("shards", 4, "number of keyspace shards (ignored with -topology)")
		topo    = flag.String("topology", "", "cluster topology JSON (docs/OPERATIONS.md); shard count and backends come from it")
		catPath = flag.String("catalog", "", "durable routing-catalog directory; restarts resume the keyspace and re-adopt node-held groups")
		n1      = flag.Int("n1", 4, "edge layer size per group")
		n2      = flag.Int("n2", 5, "back-end layer size per group")
		f1      = flag.Int("f1", 1, "edge layer fault tolerance")
		f2      = flag.Int("f2", 1, "back-end layer fault tolerance")
		pool    = flag.Int("pool", 2, "writer/reader clients pooled per key")
		maxOps  = flag.Int("max-ops", 32, "concurrent operations per shard (backpressure)")
		latency = flag.Duration("latency", 0, "uniform simulated link latency (0 = instant)")
		timeout = flag.Duration("timeout", 30*time.Second, "per-operation timeout")

		repairEvery = flag.Duration("repair-interval", 0, "background anti-entropy period for tcp shards (0 = manual via POST /v1/repair)")
		repairRate  = flag.Int64("repair-rate", 0, "repair bandwidth budget in bytes/sec (0 = unlimited)")
	)
	flag.Parse()

	params, err := lds.NewParams(*n1, *n2, *f1, *f2)
	if err != nil {
		return err
	}
	cfg := gateway.Config{
		Shards:         *shards,
		Params:         params,
		Latency:        transport.Uniform(*latency),
		PoolSize:       *pool,
		MaxOpsPerShard: *maxOps,
	}
	if *topo != "" {
		t, err := gateway.LoadTopology(*topo)
		if err != nil {
			return err
		}
		cfg.Topology = t
		cfg.Shards = 0 // adopt the topology's shard count
	}
	if *repairEvery > 0 || *repairRate > 0 {
		cfg.Repair = &gateway.RepairOptions{
			Interval:        *repairEvery,
			RateBytesPerSec: *repairRate,
		}
	}
	if *catPath != "" {
		cat, err := catalog.Open(*catPath)
		if err != nil {
			return err
		}
		defer cat.Close()
		cfg.Catalog = cat
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	defer gw.Close()
	if info := gw.RestoreInfo(); info != nil {
		log.Printf("lds-gateway: catalog restored %d keys (%d dropped, %d orphans retired); reconciled %d node-held groups",
			info.Objects, info.Dropped, info.Orphans, info.AdoptedGroups)
		for _, e := range info.AdoptErrors {
			log.Printf("lds-gateway: reconcile incomplete (%s); run POST /v1/reprovision once the node returns", e)
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: newHandler(gw, *timeout)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	// The "listening on" line is parsed by tooling (and the restart e2e)
	// to learn the bound port when -listen used ":0"; keep it stable.
	log.Printf("lds-gateway: listening on %s", ln.Addr())
	log.Printf("lds-gateway: %d shards of (n1=%d, n2=%d, f1=%d, f2=%d) groups",
		gw.Shards(), *n1, *n2, *f1, *f2)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sigc:
		// The deferred gw.Close detaches from node-held groups when a
		// catalog is configured (graceful restart) and retires them
		// otherwise.
		log.Print("lds-gateway: shutting down")
		return srv.Close()
	}
}

// statsResponse is the /v1/stats payload.
type statsResponse struct {
	Shards         []shardStatsJSON `json:"shards"`
	TemporaryBytes int64            `json:"temporary_bytes"`
	PermanentBytes int64            `json:"permanent_bytes"`
	RingVersion    int              `json:"ring_version"`
	Resizing       bool             `json:"resizing"`
	PinnedKeys     int              `json:"pinned_keys"`
	// Namespace recycling gauges: allocated is the id-space high-water
	// mark, free counts reaped namespaces awaiting reuse.
	NamespacesAllocated int `json:"namespaces_allocated"`
	NamespacesFree      int `json:"namespaces_free"`
	// CatalogError surfaces a failing routing catalog (persistence is
	// degraded; operations keep serving). Empty when healthy or when no
	// catalog is configured.
	CatalogError string `json:"catalog_error,omitempty"`
}

// shardStatsJSON flattens gateway.ShardStats with the derived means.
type shardStatsJSON struct {
	gateway.ShardStats
	MeanReadLatency  time.Duration `json:"mean_read_latency_ns"`
	MeanWriteLatency time.Duration `json:"mean_write_latency_ns"`
}

// rebalanceRequest is the POST /v1/rebalance body; the zero value plans
// and applies hot-key moves.
type rebalanceRequest struct {
	// Shards, when non-zero, resizes the ring to this shard count.
	Shards int `json:"shards"`
	// Key/To, when Key is non-empty, migrate one key explicitly.
	Key string `json:"key"`
	To  int    `json:"to"`
}

// rebalanceResponse reports what the control plane did.
type rebalanceResponse struct {
	Action      string         `json:"action"` // "resize", "migrate" or "spread"
	Shards      int            `json:"shards,omitempty"`
	Moves       []gateway.Move `json:"moves,omitempty"`
	RingVersion int            `json:"ring_version"`
}

// newHandler builds the HTTP API over one gateway; split from run so
// tests can drive the full front door without a listener.
func newHandler(gw *gateway.Gateway, timeout time.Duration) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/kv/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		ctx, cancel := timeoutContext(r, timeout)
		defer cancel()
		value, tag, err := gw.Get(ctx, key)
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("X-LDS-Tag", tag.String())
		w.Header().Set("X-LDS-Shard", fmt.Sprint(gw.ShardFor(key)))
		w.Write(value)
	})
	mux.HandleFunc("PUT /v1/kv/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		value, err := io.ReadAll(io.LimitReader(r.Body, maxValueSize+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(value) > maxValueSize {
			http.Error(w, "value too large", http.StatusRequestEntityTooLarge)
			return
		}
		ctx, cancel := timeoutContext(r, timeout)
		defer cancel()
		tag, err := gw.Put(ctx, key, value)
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("X-LDS-Tag", tag.String())
		w.Header().Set("X-LDS-Shard", fmt.Sprint(gw.ShardFor(key)))
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		// Refresh the remote shards' storage gauges first so TCP shards
		// report live occupancy; stale gauges (a node mid-restart) are
		// served rather than failing the whole stats call.
		ctx, cancel := timeoutContext(r, timeout)
		gw.SyncRemoteStats(ctx)
		cancel()
		stats := gw.Stats()
		resp := statsResponse{
			Shards:              make([]shardStatsJSON, len(stats)),
			TemporaryBytes:      gw.TemporaryBytes(),
			PermanentBytes:      gw.PermanentBytes(),
			RingVersion:         gw.RingVersion(),
			Resizing:            gw.Resizing(),
			PinnedKeys:          gw.PinnedKeys(),
			NamespacesAllocated: gw.AllocatedNamespaces(),
			NamespacesFree:      gw.FreeNamespaces(),
		}
		if cerr := gw.CatalogErr(); cerr != nil {
			resp.CatalogError = cerr.Error()
		}
		for i, s := range stats {
			resp.Shards[i] = shardStatsJSON{
				ShardStats:       s,
				MeanReadLatency:  s.MeanReadLatency(),
				MeanWriteLatency: s.MeanWriteLatency(),
			}
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := timeoutContext(r, timeout)
		defer cancel()
		nodes, err := gw.ProbeRemoteNodes(ctx)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, map[string]any{"nodes": nodes})
	})
	mux.HandleFunc("GET /v1/scrub", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := timeoutContext(r, timeout)
		defer cancel()
		report, err := gw.ScrubRemote(ctx)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, map[string]any{"clean": report.Clean(), "totals": report.Totals(), "report": report})
	})
	mux.HandleFunc("POST /v1/repair", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := timeoutContext(r, timeout)
		defer cancel()
		report, err := gw.RepairRemote(ctx)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, map[string]any{"clean": report.After.Clean(), "report": report})
	})
	mux.HandleFunc("POST /v1/reprovision", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := timeoutContext(r, timeout)
		defer cancel()
		if err := gw.ReprovisionRemote(ctx); err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, map[string]any{"reprovisioned": true})
	})
	mux.HandleFunc("POST /v1/rebalance", func(w http.ResponseWriter, r *http.Request) {
		var req rebalanceRequest
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		ctx, cancel := timeoutContext(r, timeout)
		defer cancel()
		switch {
		case req.Shards != 0:
			if err := gw.Resize(ctx, req.Shards); err != nil {
				httpError(w, err)
				return
			}
			writeJSON(w, rebalanceResponse{Action: "resize", Shards: gw.Shards(), RingVersion: gw.RingVersion()})
		case req.Key != "":
			if err := gw.MigrateKey(ctx, req.Key, req.To); err != nil {
				httpError(w, err)
				return
			}
			writeJSON(w, rebalanceResponse{
				Action:      "migrate",
				Moves:       []gateway.Move{{Key: req.Key, To: req.To}},
				RingVersion: gw.RingVersion(),
			})
		default:
			plan, err := gateway.NewRebalancer(gw).Rebalance(ctx)
			if err != nil {
				httpError(w, err)
				return
			}
			writeJSON(w, rebalanceResponse{Action: "spread", Moves: plan.Moves, RingVersion: plan.RingVersion})
		}
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func timeoutContext(r *http.Request, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), d)
}

// httpError maps operation failures onto status codes: timeouts (an
// overloaded or crashed shard) read as 504, shutdown as 503, rebalance
// contention as 409, a shard count out of range as 400, a node operation
// on a gateway without tcp shards as 404, everything else as 500.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, gateway.ErrShardCount):
		code = http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		code = http.StatusGatewayTimeout
	case errors.Is(err, gateway.ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, gateway.ErrMigrating) || errors.Is(err, gateway.ErrResizing):
		code = http.StatusConflict
	case errors.Is(err, gateway.ErrNoTopology):
		code = http.StatusNotFound
	}
	http.Error(w, err.Error(), code)
}
