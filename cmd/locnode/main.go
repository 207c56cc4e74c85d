// Command locnode hosts one platform node of a multi-process deployment
// over TCP. Every locnode runs its own LHAgent; exactly one locnode per
// cluster is started with -bootstrap and additionally hosts the HAgent and
// the initial IAgent.
//
// A three-node cluster on one machine:
//
//	locnode -id node-0 -listen 127.0.0.1:7100 \
//	        -peers node-1=127.0.0.1:7101,node-2=127.0.0.1:7102 -bootstrap &
//	locnode -id node-1 -listen 127.0.0.1:7101 \
//	        -peers node-0=127.0.0.1:7100,node-2=127.0.0.1:7102 -hagent-node node-0 &
//	locnode -id node-2 -listen 127.0.0.1:7102 \
//	        -peers node-0=127.0.0.1:7100,node-1=127.0.0.1:7101 -hagent-node node-0 &
//
// Then drive it with locctl.
//
// With -metrics-addr the node additionally serves its observability
// endpoints over HTTP: /metrics (Prometheus text format), /varz (the full
// snapshot as JSON), /healthz, /trace (the node's recorded spans, scraped
// by locctl trace), /events (the decision log, fetched by locctl events)
// and the standard Go profiling handlers under /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"agentloc/internal/core"
	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/trace"
	"agentloc/internal/transport"

	// Registers workload behaviours (TAgent) with gob so locctl-spawned
	// agents can land on and roam between locnodes.
	_ "agentloc/internal/workload"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-sigs
		close(stop)
	}()
	if err := run(os.Args[1:], stop, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "locnode:", err)
		os.Exit(1)
	}
}

// run is the whole node lifecycle; main only wires signals to the stop
// channel so tests can drive a full node in-process.
func run(args []string, stop <-chan struct{}, w io.Writer) error {
	fs := flag.NewFlagSet("locnode", flag.ContinueOnError)
	id := fs.String("id", "", "node id (required)")
	listen := fs.String("listen", "127.0.0.1:0", "host:port to listen on")
	peers := fs.String("peers", "", "comma-separated peer directory: id=host:port,...")
	bootstrap := fs.Bool("bootstrap", false, "host the HAgent and the initial IAgent")
	hagentNode := fs.String("hagent-node", "", "node hosting the HAgent (defaults to this node when -bootstrap)")
	tmax := fs.Float64("tmax", 50, "split threshold, messages/second")
	tmin := fs.Float64("tmin", 5, "merge threshold, messages/second")
	service := fs.Duration("service", time.Millisecond, "IAgent per-request service time")
	heartbeat := fs.Duration("heartbeat", 0, "IAgent heartbeat interval; enables crash tolerance (0 = off)")
	suspectMisses := fs.Int("suspect-misses", 0, "missed heartbeats before an IAgent is suspected (0 = default 3)")
	dataDir := fs.String("data-dir", "", "directory for the durable WAL and snapshots; enables crash-safe persistence and cold-start recovery (off when empty)")
	snapInterval := fs.Duration("snapshot-interval", 30*time.Second, "how often the node writes a full snapshot (needs -data-dir)")
	metricsAddr := fs.String("metrics-addr", "", "host:port for the /metrics, /varz, /healthz, /trace, /events and /debug/pprof HTTP endpoints (off when empty)")
	traceCapacity := fs.Int("trace-capacity", 2048, "completed spans the node retains for /trace")
	traceSample := fs.Int("trace-sample", 1, "record every Nth trace (1 = every request)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("missing -id")
	}

	directory, err := parsePeers(*peers)
	if err != nil {
		return err
	}

	reg := metrics.New()
	log := trace.NewLog(256)
	metrics.BridgeTrace(log, reg)
	tracer := trace.NewRecorder(*id, *traceCapacity, *traceSample)
	metrics.BridgeSpans(tracer, reg)

	link, err := transport.NewTCP(transport.TCPConfig{
		ListenOn:  *listen,
		Directory: directory,
		Metrics:   reg,
		Trace:     log,
	})
	if err != nil {
		return err
	}
	defer link.Close()
	fmt.Fprintf(w, "locnode %s listening on %s\n", *id, link.ListenAddr())

	var store *snapshot.Store
	if *dataDir != "" {
		store, err = snapshot.Open(*dataDir, reg)
		if err != nil {
			return fmt.Errorf("open data dir: %w", err)
		}
		defer store.Close()
	}

	node, err := platform.NewNode(platform.Config{
		ID:      platform.NodeID(*id),
		Link:    transport.Instrument(link, reg),
		Trace:   log,
		Metrics: reg,
		Tracer:  tracer,
		Durable: store,
	})
	if err != nil {
		return err
	}
	defer node.Close()

	cfg := core.DefaultConfig()
	cfg.TMax = *tmax
	cfg.TMin = *tmin
	cfg.IAgentServiceTime = *service
	cfg.HeartbeatInterval = *heartbeat
	cfg.SuspectAfterMisses = *suspectMisses
	switch {
	case *hagentNode != "":
		cfg.HAgentNode = platform.NodeID(*hagentNode)
	case *bootstrap:
		cfg.HAgentNode = node.ID()
	default:
		return fmt.Errorf("need -hagent-node (or -bootstrap on the HAgent's node)")
	}
	cfg.PlacementNodes = placementNodes(node.ID(), directory)
	if err := cfg.Validate(); err != nil {
		return err
	}

	// Cold-start recovery: rebuild whatever location infrastructure this
	// node hosted before its last crash from the snapshot store. Recovered
	// state wins over -bootstrap — rebootstrapping a node that already has
	// durable state would fork the directory.
	recovered := false
	if store != nil {
		rep, err := core.RecoverNode(node, cfg)
		if err != nil {
			return fmt.Errorf("recover from %s: %w", *dataDir, err)
		}
		if len(rep.HAgents) > 0 || len(rep.IAgents) > 0 {
			recovered = true
			fmt.Fprintf(w, "locnode %s recovered gen %d: %d HAgent(s), %d IAgent(s), %d entries, %d WAL records replayed\n",
				*id, rep.Generation, len(rep.HAgents), len(rep.IAgents), rep.Entries, rep.Replayed)
			if rep.Skipped > 0 {
				fmt.Fprintf(w, "locnode %s recovery skipped %d corrupt/unreadable frames\n", *id, rep.Skipped)
			}
		}
	}

	// Every node runs its own LHAgent (paper §2.2: one per node); recovery
	// may have launched it already.
	if !node.Hosts(core.LHAgentID(node.ID())) {
		if err := node.Launch(core.LHAgentID(node.ID()), &core.LHAgentBehavior{Cfg: cfg}); err != nil {
			return err
		}
	}

	if *bootstrap && recovered {
		fmt.Fprintf(w, "locnode %s: -bootstrap ignored, durable state recovered\n", *id)
	}
	if *bootstrap && !recovered {
		firstIAgent := ids.AgentID("iagent-1")
		initial := &core.State{
			Ver:       1,
			Tree:      hashtree.New(string(firstIAgent)),
			Locations: map[ids.AgentID]platform.NodeID{firstIAgent: node.ID()},
		}
		hagent := &core.HAgentBehavior{Cfg: cfg, InitialState: initial.DTO(), NextIAgentSeq: 1}
		if err := node.Launch(cfg.HAgent, hagent); err != nil {
			return err
		}
		iagent := &core.IAgentBehavior{Cfg: cfg, StateSnapshot: initial.DTO()}
		if err := node.Launch(firstIAgent, iagent, platform.WithServiceTime(cfg.IAgentServiceTime)); err != nil {
			return err
		}
		fmt.Fprintf(w, "locnode %s bootstrapped the location mechanism (HAgent + iagent-1)\n", *id)
	}

	var persister *core.Persister
	if store != nil && *snapInterval > 0 {
		persister, err = core.StartPersister(node, cfg, *snapInterval)
		if err != nil {
			return fmt.Errorf("start persister: %w", err)
		}
		fmt.Fprintf(w, "locnode %s persisting to %s every %s\n", *id, *dataDir, *snapInterval)
	}

	var httpSrv *http.Server
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		httpSrv = &http.Server{Handler: metrics.ObservabilityHandler(reg, func() any {
			return map[string]any{
				"status": "ok",
				"node":   string(node.ID()),
				"agents": len(node.Agents()),
			}
		}, tracer, log)}
		go func() {
			// Server shutdown is reported through Shutdown below;
			// ErrServerClosed here is the normal exit.
			_ = httpSrv.Serve(ln)
		}()
		fmt.Fprintf(w, "locnode %s metrics on http://%s/metrics\n", *id, ln.Addr())
	}

	<-stop
	fmt.Fprintf(w, "locnode %s shutting down\n", *id)
	if persister != nil {
		// Stop writes a final full snapshot so the next cold start replays
		// as little WAL as possible.
		if err := persister.Stop(); err != nil {
			fmt.Fprintf(w, "locnode %s: %v\n", *id, err)
		}
	}
	if httpSrv != nil {
		// Drain in-flight scrapes before tearing the node down, bounded so
		// a stuck client cannot wedge shutdown.
		sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			fmt.Fprintf(w, "locnode %s: metrics shutdown: %v\n", *id, err)
		}
	}
	return nil
}

// parsePeers parses "id=host:port,id=host:port".
func parsePeers(s string) (map[transport.Addr]string, error) {
	out := make(map[transport.Addr]string)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		out[transport.Addr(kv[0])] = kv[1]
	}
	return out, nil
}

// placementNodes lists this node plus every peer as IAgent placement
// targets, deterministically ordered (self first).
func placementNodes(self platform.NodeID, directory map[transport.Addr]string) []platform.NodeID {
	out := []platform.NodeID{self}
	for addr := range directory {
		out = append(out, platform.NodeID(addr))
	}
	return out
}
