// Command locctl drives a running locnode cluster over TCP: it joins the
// cluster as a lightweight client node (with its own LHAgent, as the
// protocol requires), then issues location-service operations.
//
//	locctl -peers node-0=127.0.0.1:7100,... -hagent-node node-0 stats
//	locctl -peers ... -hagent-node node-0 spawn 10 500ms
//	locctl -peers ... -hagent-node node-0 locate tagent-3
//	locctl -peers ... -hagent-node node-0 register my-agent gpu,ocr
//	locctl -peers ... -hagent-node node-0 discover -near node-1 -limit 5 gpu,ocr
//	locctl -peers ... -hagent-node node-0 deposit tagent-3 "report in"
//	locctl -peers ... -hagent-node node-0 tree
//
// The metrics and events subcommands need no cluster membership — they
// scrape a locnode's -metrics-addr endpoint over HTTP and pretty-print it:
//
//	locctl metrics 127.0.0.1:9100
//	locctl events 127.0.0.1:9100 rehash.
//
// The trace subcommand joins the cluster, runs one fully-traced locate, then
// scrapes the spans every named node recorded for it and reassembles the
// causal tree with a per-phase latency breakdown:
//
//	locctl -peers ... -hagent-node node-0 trace tagent-3 \
//	    127.0.0.1:9100 127.0.0.1:9101 127.0.0.1:9102
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
	"agentloc/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "locctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("locctl", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "host:port for the control node")
	peers := fs.String("peers", "", "comma-separated cluster directory: id=host:port,...")
	hagentNode := fs.String("hagent-node", "", "node hosting the HAgent (required)")
	timeout := fs.Duration("timeout", 30*time.Second, "operation timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cmd := fs.Args()
	if len(cmd) == 0 {
		return fmt.Errorf("missing command (stats | tree | locate <agent> | register <agent> [caps-csv] | discover [-near node] [-limit n] <caps-csv> | deposit <agent> <text> | spawn <count> <residence> | trace <agent> <host:port>... | metrics <host:port> | events <host:port> [kind-prefix])")
	}
	// metrics and events scrape over plain HTTP; they need no cluster
	// membership.
	switch cmd[0] {
	case "metrics":
		return metricsCmd(cmd[1:], *timeout, os.Stdout)
	case "events":
		return eventsCmd(cmd[1:], *timeout, os.Stdout)
	}
	if *peers == "" || *hagentNode == "" {
		return fmt.Errorf("need -peers and -hagent-node")
	}

	directory := make(map[transport.Addr]string)
	for _, part := range strings.Split(*peers, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad peer entry %q", part)
		}
		directory[transport.Addr(kv[0])] = kv[1]
	}

	link, err := transport.NewTCP(transport.TCPConfig{ListenOn: *listen, Directory: directory})
	if err != nil {
		return err
	}
	defer link.Close()

	// The control node is an ephemeral cluster member: no cluster node has
	// a directory entry for it, and none needs one. Every reply rides the
	// connection its request came in on, and a cluster node that calls it
	// sends over the connection it last spoke on (the TCP link's learned
	// route). Its id is derived from the listen address, a port the OS picks
	// afresh for each run, only so that two control nodes running at once
	// never share one: a shared id would have each overwrite the other's
	// learned route at every cluster node and mix their spans in the traces.
	ctlID := platform.NodeID("locctl-" + strings.ReplaceAll(link.ListenAddr(), ":", "-"))
	// The control node traces every operation it issues (sample 1): locctl
	// is a probe, so its spans are the client-tier roots that the trace
	// subcommand stitches the cluster's server spans onto.
	tracer := trace.NewRecorder(string(ctlID), 1024, 1)
	node, err := platform.NewNode(platform.Config{ID: ctlID, Link: link, Tracer: tracer})
	if err != nil {
		return err
	}
	defer node.Close()

	cfg := core.DefaultConfig()
	cfg.HAgentNode = platform.NodeID(*hagentNode)
	if err := node.Launch(core.LHAgentID(ctlID), &core.LHAgentBehavior{Cfg: cfg}); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	client := core.NewClient(core.NodeCaller{N: node}, cfg)

	switch cmd[0] {
	case "stats", "tree":
		var resp core.HashStatsResp
		err := node.CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, core.KindHashStats, nil, &resp)
		if err != nil {
			return err
		}
		fmt.Printf("hash v%d: %d IAgents, %d splits, %d merges\n",
			resp.HashVersion, resp.NumIAgents, resp.Splits, resp.Merges)
		if cmd[0] == "tree" {
			fmt.Print(resp.TreeRender)
		}
		return nil
	case "locate":
		if len(cmd) != 2 {
			return fmt.Errorf("usage: locate <agent>")
		}
		where, err := client.Locate(ctx, ids.AgentID(cmd[1]))
		if err != nil {
			return err
		}
		fmt.Printf("%s is at %s\n", cmd[1], where)
		return nil
	case "trace":
		if len(cmd) < 2 {
			return fmt.Errorf("usage: trace <agent> <host:port>...")
		}
		return traceCmd(ctx, client, tracer, ids.AgentID(cmd[1]), cmd[2:], *timeout, os.Stdout)
	case "deposit":
		if len(cmd) != 3 {
			return fmt.Errorf("usage: deposit <agent> <text>")
		}
		target := ids.AgentID(cmd[1])
		if err := client.Deposit(ctx, ids.AgentID(ctlID), target, "locctl", []byte(cmd[2])); err != nil {
			return err
		}
		fmt.Printf("deposited %q for %s (delivered at its next check-in)"+"\n", cmd[2], target)
		return nil
	case "register":
		if len(cmd) != 2 && len(cmd) != 3 {
			return fmt.Errorf("usage: register <agent> [caps-csv]")
		}
		var assign core.Assignment
		if len(cmd) == 3 {
			assign, err = client.RegisterWithCapabilities(ctx, ids.AgentID(cmd[1]), strings.Split(cmd[2], ","))
		} else {
			assign, err = client.Register(ctx, ids.AgentID(cmd[1]))
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s registered at %s, served by %s at %s\n", cmd[1], ctlID, assign.IAgent, assign.Node)
		return nil
	case "discover":
		dfs := flag.NewFlagSet("discover", flag.ContinueOnError)
		near := dfs.String("near", "", "rank matches currently at this node first")
		limit := dfs.Int("limit", 0, "cap on returned matches (0 = unlimited)")
		if err := dfs.Parse(cmd[1:]); err != nil {
			return err
		}
		if dfs.NArg() != 1 {
			return fmt.Errorf("usage: discover [-near node] [-limit n] <caps-csv>")
		}
		q := core.Query{
			Caps:  strings.Split(dfs.Arg(0), ","),
			Near:  platform.NodeID(*near),
			Limit: *limit,
		}
		matches, err := client.Discover(ctx, q)
		if err != nil {
			return err
		}
		if len(matches) == 0 {
			fmt.Printf("no agents advertise %v\n", q.Caps)
			return nil
		}
		for _, m := range matches {
			marker := ""
			if q.Near != "" && m.Node == q.Near {
				marker = "  (near)"
			}
			fmt.Printf("%s at %s%s\n", m.Agent, m.Node, marker)
		}
		return nil
	case "spawn":
		if len(cmd) != 3 {
			return fmt.Errorf("usage: spawn <count> <residence>")
		}
		count, err := strconv.Atoi(cmd[1])
		if err != nil {
			return fmt.Errorf("bad count %q: %w", cmd[1], err)
		}
		residence, err := time.ParseDuration(cmd[2])
		if err != nil {
			return fmt.Errorf("bad residence %q: %w", cmd[2], err)
		}
		nodeIDs := make([]platform.NodeID, 0, len(directory))
		for addr := range directory {
			nodeIDs = append(nodeIDs, platform.NodeID(addr))
		}
		mech := workload.MechanismRef{Scheme: workload.SchemeHashed, Hashed: cfg}
		for i := 0; i < count; i++ {
			target := nodeIDs[i%len(nodeIDs)]
			id := ids.AgentID(fmt.Sprintf("tagent-%d", i))
			agent := &workload.TAgent{
				Mech:      mech,
				Nodes:     nodeIDs,
				Residence: residence,
				Seed:      int64(i + 1),
			}
			if err := node.LaunchAt(ctx, target, id, agent, 0); err != nil {
				return fmt.Errorf("spawn %s at %s: %w", id, target, err)
			}
			fmt.Printf("spawned %s at %s (residence %v)\n", id, target, residence)
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd[0])
	}
}

// traceCmd runs one fully-traced locate, scrapes the spans every named
// node's /trace endpoint retained for that trace, and reassembles them into
// a single causal tree with a per-phase latency breakdown. The locctl node
// itself records the client-tier root (its recorder samples every trace),
// so the locate issued here is guaranteed to be traced end to end.
func traceCmd(ctx context.Context, client *core.Client, tracer *trace.Recorder, agent ids.AgentID, endpoints []string, timeout time.Duration, w io.Writer) error {
	where, err := client.Locate(ctx, agent)
	if err != nil {
		return fmt.Errorf("locate %s: %w", agent, err)
	}
	fmt.Fprintf(w, "%s is at %s\n", agent, where)

	// The probe's own spans (client root, whois served by the local
	// LHAgent) plus whatever the cluster recorded for the same trace.
	spans := tracer.Snapshot()
	traceID := trace.LatestClientTraceID(spans)
	if traceID == 0 {
		return fmt.Errorf("no client root span recorded locally")
	}
	httpc := &http.Client{Timeout: timeout}
	for _, ep := range endpoints {
		dump, err := fetchTrace(httpc, ep)
		if err != nil {
			return err
		}
		spans = append(spans, dump.Spans...)
		if dump.Dropped > 0 {
			fmt.Fprintf(w, "note: node %s has dropped %d spans; the tree may be partial\n", dump.Node, dump.Dropped)
		}
	}

	roots := trace.Assemble(spans, traceID)
	if len(roots) == 0 {
		return fmt.Errorf("trace %#x: no spans found", traceID)
	}
	nodes := trace.Nodes(roots)
	fmt.Fprintf(w, "trace %#x: %d span(s) across %d node(s) %v\n",
		traceID, countSpans(roots), len(nodes), nodes)
	fmt.Fprint(w, trace.RenderTree(roots))
	if len(roots) > 1 {
		fmt.Fprintf(w, "note: %d roots — some parent spans were not scraped (evicted, or a node was not listed)\n", len(roots))
	}

	a := trace.Attribute(roots[0])
	fmt.Fprintf(w, "latency attribution for %s:\n", roots[0].Span.Name)
	names := make([]string, 0, len(a.Phases))
	for name := range a.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := a.Phases[name]
		fmt.Fprintf(w, "  %-16s %10v  (%4.1f%%)\n", name, d.Round(time.Microsecond), 100*float64(d)/float64(a.Total))
	}
	fmt.Fprintf(w, "  %-16s %10v  (%4.1f%%)\n", "unattributed", a.Unattributed().Round(time.Microsecond), 100*float64(a.Unattributed())/float64(a.Total))
	fmt.Fprintf(w, "  %-16s %10v\n", "total", a.Total.Round(time.Microsecond))
	return nil
}

// countSpans sizes an assembled forest.
func countSpans(roots []*trace.TreeNode) int {
	n := 0
	for _, r := range roots {
		n += 1 + countSpans(r.Children)
	}
	return n
}

// fetchTrace GETs one node's /trace dump.
func fetchTrace(c *http.Client, endpoint string) (*trace.Dump, error) {
	var dump trace.Dump
	if err := getJSON(c, endpointURL(endpoint, "/trace"), &dump); err != nil {
		return nil, err
	}
	return &dump, nil
}

// endpointURL completes a host:port to the URL of path on it; a full URL is
// taken as is.
func endpointURL(endpoint, path string) string {
	if strings.Contains(endpoint, "://") {
		return endpoint
	}
	return "http://" + endpoint + path
}

// getJSON GETs url and decodes its JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return fmt.Errorf("fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetch %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("parse %s: %w", url, err)
	}
	return nil
}

// eventsCmd fetches a node's decision log over HTTP, optionally filtered to
// event kinds with the given prefix, and prints one event per line.
func eventsCmd(args []string, timeout time.Duration, w io.Writer) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: events <host:port | url> [kind-prefix]")
	}
	url := endpointURL(args[0], "/events")
	if len(args) == 2 {
		url += "?kind=" + neturl.QueryEscape(args[1])
	}
	var events []trace.Event
	if err := getJSON(&http.Client{Timeout: timeout}, url, &events); err != nil {
		return err
	}
	if len(events) == 0 {
		fmt.Fprintln(w, "no events")
		return nil
	}
	for _, e := range events {
		fmt.Fprintln(w, e.String())
	}
	return nil
}

// metricsCmd fetches a node's registry as the snapshot it serves on /varz
// and renders it for humans: scalars as-is, histograms reduced to
// count/mean/quantiles.
func metricsCmd(args []string, timeout time.Duration, w io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: metrics <host:port | url>")
	}
	var snap metrics.Snapshot
	if err := getJSON(&http.Client{Timeout: timeout}, endpointURL(args[0], "/varz"), &snap); err != nil {
		return err
	}
	prettyMetrics(snap, w)
	return nil
}

// prettyMetrics prints a compact human-readable summary of a snapshot: one
// line per counter or gauge series, then the histograms folded to
// count/mean/p50/p90/p99.
func prettyMetrics(snap metrics.Snapshot, w io.Writer) {
	var scalars, hists []string
	for _, fam := range snap.Families {
		for _, s := range fam.Series {
			name := seriesName(fam.Name, s.Labels)
			h := s.Histogram
			if h == nil {
				scalars = append(scalars, fmt.Sprintf("%-64s %s", name, formatValue(name, s.Value)))
				continue
			}
			hists = append(hists, fmt.Sprintf("%-64s count=%d mean=%s p50=%s p90=%s p99=%s",
				name, h.Count,
				formatValue(name, h.Mean()),
				formatValue(name, h.Quantile(0.50)),
				formatValue(name, h.Quantile(0.90)),
				formatValue(name, h.Quantile(0.99))))
		}
	}
	sort.Strings(scalars)
	sort.Strings(hists)
	for _, line := range append(scalars, hists...) {
		fmt.Fprintln(w, line)
	}
}

// seriesName renders a series as the exposition names it: name{k="v",...}.
func seriesName(name string, labels []metrics.Label) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, len(labels))
	for i, l := range labels {
		pairs[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// formatValue renders seconds-unit metrics as durations and everything else
// as plain numbers.
func formatValue(name string, v float64) string {
	if strings.Contains(name, "_seconds") {
		return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
	}
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
