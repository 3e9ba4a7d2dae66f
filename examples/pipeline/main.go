// Pipeline: a partitioned multi-machine deployment (§6 of the paper).
//
// A wide-area grid-monitoring computation (internal/griddemo) — four
// regional feeds, each smoothed and screened for anomalies, fused into
// a national alert — is partitioned across three machines by the
// cost-aware planner and run as a true multi-engine pipeline: each
// machine owns an independent engine (its own lock, run queue and
// worker pool), joined only by bounded backpressured links. The run is
// serializable end to end, so the partitioned deployment fires alerts
// at exactly the same phases as a single machine holding the whole
// graph — whatever transport carries the links.
//
//	go run ./examples/pipeline                  # in-process channel links
//	go run ./examples/pipeline -transport tcp   # in-process, loopback TCP links
//	go run ./examples/pipeline -rebalance       # with mid-run epoch switches
//	go run ./examples/pipeline -multiproc       # three worker PROCESSES over TCP
//	go run ./examples/pipeline -crashrecover    # kill -9 a worker, restart it from its WAL
//
// -multiproc re-executes this binary as three fuseworker-style worker
// processes (internal/griddemo.RunWorker, the same driver behind
// cmd/fuseworker), wires them over loopback TCP, and checks the
// distributed alert history against the in-process reference.
//
// -rebalance runs the deployment under dynamic repartitioning
// (DESIGN.md §8): the run quiesces at epoch barriers, hands migrating
// vertices' state between machines (serialized through the transport
// for modules that support it), re-plans on measured per-vertex costs
// and resumes — and the alert history must still be bit-identical to
// the single-machine run. It composes with -transport tcp, and with
// -multiproc it exercises the full control plane (DESIGN.md §9):
// worker 0 coordinates epoch switches across three OS processes,
// region 0's detector genuinely drifts mid-run, and at least one
// vertex must migrate between processes — with the distributed alert
// history still bit-identical to the single-process reference.
//
// -crashrecover is the durability smoke (DESIGN.md §10): the
// coordinated run writes per-machine WALs, one worker is SIGKILLed
// mid-epoch and restarted against its WAL, and the alert history must
// STILL be bit-identical to the single-process reference. -torntail
// additionally truncates the dead worker's WAL mid-record first,
// exercising torn-write repair and a deeper rollback.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/graph"
	"repro/internal/griddemo"
)

const (
	machines = 3
	phases   = 720
)

// Named flag-combination errors, mirroring fuseworker's -wal/-recover
// checks: each invalid combination maps to exactly one named error, so
// scripts (and tests) can match on the message instead of parsing
// usage text.
var (
	errBadTransport   = errors.New("-transport must be chan or tcp")
	errTCPElsewhere   = errors.New("-transport tcp applies to the in-process run; -multiproc and -crashrecover always wire workers over TCP")
	errTornTailAlone  = errors.New("-torntail requires -crashrecover (it damages the killed worker's WAL before the restart)")
	errWALDirAlone    = errors.New("-waldir requires -crashrecover or -worker (only durable runs write WALs)")
	errCrashAndMulti  = errors.New("-crashrecover already runs multi-process; drop -multiproc")
	errRecoverNoWAL   = errors.New("-recoverworker requires -waldir (recovery replays the durable checkpoint log)")
	errRecoverOutside = errors.New("-recoverworker is the internal restarted-worker mode and requires -worker")
	errWorkerNoPeers  = errors.New("-worker requires -peers (the worker dials its flock)")
)

// flagState is the parsed flag set under validation.
type flagState struct {
	transport                          string
	rebalance, multiproc, crashrecover bool
	torntail, recoverWorker            bool
	walDir, peers                      string
	workerIdx                          int
}

// validateFlags routes every fault/recover flag combination through
// one table: the first violated rule's named error is reported.
func validateFlags(fs flagState) error {
	rules := []struct {
		bad bool
		err error
	}{
		{fs.transport != "chan" && fs.transport != "tcp", errBadTransport},
		{fs.transport == "tcp" && (fs.multiproc || fs.crashrecover || fs.workerIdx >= 0), errTCPElsewhere},
		{fs.torntail && !fs.crashrecover, errTornTailAlone},
		{fs.walDir != "" && !fs.crashrecover && fs.workerIdx < 0, errWALDirAlone},
		{fs.crashrecover && fs.multiproc, errCrashAndMulti},
		{fs.recoverWorker && fs.walDir == "", errRecoverNoWAL},
		{fs.recoverWorker && fs.workerIdx < 0, errRecoverOutside},
		{fs.workerIdx >= 0 && fs.peers == "", errWorkerNoPeers},
	}
	for _, r := range rules {
		if r.bad {
			return r.err
		}
	}
	return nil
}

func main() {
	transport := flag.String("transport", "chan", "link transport for the in-process run: chan | tcp")
	rebalance := flag.Bool("rebalance", false, "dynamically repartition the in-process run at epoch barriers")
	multiproc := flag.Bool("multiproc", false, "run the deployment as three separate worker processes over TCP")
	crashrecover := flag.Bool("crashrecover", false, "durable multiproc: SIGKILL one worker mid-epoch, restart it with its WAL, and require a bit-identical alert history")
	torntail := flag.Bool("torntail", false, "with -crashrecover: truncate the killed worker's WAL mid-record before the restart (torn-write repair)")
	walDir := flag.String("waldir", "", "with -crashrecover: WAL directory (kept for inspection; default: a fresh temp directory). Internal: worker WAL directory")
	workerIdx := flag.Int("worker", -1, "internal: run as worker process for this machine index")
	peers := flag.String("peers", "", "internal: comma-separated worker listen addresses")
	recoverWorker := flag.Bool("recoverworker", false, "internal: restarted worker rejoins the flock from its WAL")
	flag.Parse()

	if err := validateFlags(flagState{
		transport: *transport, rebalance: *rebalance, multiproc: *multiproc,
		crashrecover: *crashrecover, torntail: *torntail, walDir: *walDir,
		workerIdx: *workerIdx, peers: *peers, recoverWorker: *recoverWorker,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "pipeline: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if *workerIdx >= 0 {
		runAsWorker(*workerIdx, strings.Split(*peers, ","), *rebalance, *walDir, *recoverWorker)
		return
	}
	if *crashrecover {
		runCrashRecover(*torntail, *walDir)
		return
	}
	if *multiproc {
		runMultiProcess(*rebalance)
		return
	}
	runInProcess(*transport, *rebalance)
}

// run executes the demo on the given machine count in-process and
// returns the stats, fired alert phases and the planner cost vector.
// With rebalance set, the run switches epochs every phases/3 phases —
// a deterministic demonstration of the barrier/handoff machinery whose
// output must nevertheless be identical to the plain run (the
// drift-triggered mode is measured by fusebench's E14). driftAt > 0
// builds the drifted demo workload (extra cost past that phase,
// identical values).
func run(machineCount int, network distrib.Network, rebalance bool, driftAt int) (distrib.Stats, []int, []float64) {
	w := griddemo.DemoWorkload(driftAt)
	cfg := distrib.Config{
		Machines: machineCount, WorkersPerMachine: 2,
		MaxInFlight: 16, Buffer: 8,
		Planner: distrib.CostAware{}, Costs: w.Costs,
		Network: network,
	}
	batches := make([][]core.ExtInput, phases)
	var st distrib.Stats
	var err error
	if rebalance {
		st, err = distrib.Run(context.Background(), distrib.RunConfig{Graph: w.Graph, Mods: w.Mods, Batches: batches, Dist: cfg}, distrib.WithRebalancing(distrib.RebalanceConfig{
			ForceEvery:   phases / 3,
			MinRemaining: phases / 6,
		}))
	} else {
		st, err = distrib.Run(context.Background(), distrib.RunConfig{Graph: w.Graph, Mods: w.Mods, Batches: batches, Dist: cfg})
	}
	if err != nil {
		log.Fatal(err)
	}
	return st, w.Alerts.Alerts, w.Costs
}

func runInProcess(transport string, rebalance bool) {
	var network distrib.Network
	switch transport {
	case "chan":
	case "tcp":
		tn, err := distrib.NewTCPNetwork()
		if err != nil {
			log.Fatal(err)
		}
		defer tn.Close()
		network = tn
	default:
		log.Fatalf("unknown -transport %q (chan | tcp)", transport)
	}

	single, refAlerts, _ := run(1, nil, false, 0)
	st, alerts, costs := run(machines, network, rebalance, 0)

	fmt.Printf("partitioned %d vertices over %d machines (%s planner, %s transport)\n",
		len(costs), machines, st.Planner, st.Transport)
	loads := graph.StageLoads(st.Starts, costs)
	for m := range st.Starts {
		end := len(costs)
		if m+1 < len(st.Starts) {
			end = st.Starts[m+1] - 1
		}
		fmt.Printf("  machine %d: vertices %d..%d  est. load %.0f  executions %d\n",
			m, st.Starts[m], end, loads[m], st.PerMachine[m].Executions)
	}
	fmt.Printf("cut edges: %d   cross-machine values: %d\n", st.CrossEdges, st.CrossMessages)
	for _, ls := range st.Links {
		fmt.Printf("  link %d->%d (%s): %d frames, %d values, %d bytes, blocked %v\n",
			ls.From, ls.To, ls.Transport, ls.Frames, ls.Values, ls.Bytes, ls.Blocked)
	}
	for _, ev := range st.Rebalances {
		fmt.Printf("  epoch switch @ phase %d: starts %v -> %v, %d vertices moved (%d serialized, %d bytes) in %v\n",
			ev.Barrier, ev.FromStarts, ev.ToStarts, ev.Moved, ev.Serialized, ev.HandoffBytes, ev.Wall.Round(time.Microsecond))
	}
	fmt.Printf("wall: 1 machine %v, %d machines %v\n", single.Wall, machines, st.Wall)

	fmt.Printf("multi-region alerts at phases: %v\n", alerts)
	compareAlerts(alerts, refAlerts)
	fmt.Println("alert history identical to the single-machine run ✓")
}

// runAsWorker is the re-exec target: one machine of the deployment in
// this process, wired to its peers over TCP. In rebalance mode region
// 0's detector drifts mid-run and worker 0 coordinates the epoch
// switches that chase it. With a WAL directory the worker checkpoints
// every epoch launch; with rejoin set it replays that WAL and dials
// back into a running flock after a crash.
func runAsWorker(machine int, peerAddrs []string, rebalance bool, walDir string, rejoin bool) {
	opts := griddemo.WorkerOptions{
		Machine:  machine,
		Machines: len(peerAddrs),
		Peers:    peerAddrs,
		Phases:   phases,
		Workers:  2,
		Buffer:   8,
		Log:      os.Stdout,
	}
	if rebalance {
		opts.Rebalance = true
		opts.ForceEvery = phases / 3
		opts.DriftAt = phases / 4
	}
	if walDir != "" {
		opts.WALDir = walDir
		opts.Recover = rejoin
		opts.RecoverWindow = 60 * time.Second
	}
	res, err := griddemo.RunWorker(opts)
	if err != nil {
		log.Fatal(err)
	}
	if machine == 0 && rebalance {
		moved := 0
		for _, ev := range res.Rebalances {
			moved += ev.Moved
		}
		fmt.Printf("rebalance@switches=%d moved=%d\n", len(res.Rebalances), moved)
	}
	if machine == 0 && walDir != "" {
		rejoined := 0
		for _, rv := range res.Recoveries {
			rejoined += len(rv.Machines)
		}
		fmt.Printf("recover@recoveries=%d rejoined=%d\n", len(res.Recoveries), rejoined)
	}
	if res.OwnsSink {
		fmt.Printf("alerts@%v\n", res.Alerts)
	}
}

// runMultiProcess launches one worker process per machine (re-executing
// this binary with -worker) and compares the sink machine's alert line
// with the in-process reference. With rebalance it additionally
// requires at least one epoch switch that migrated at least one vertex
// between the worker processes.
func runMultiProcess(rebalance bool) {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	addrs := make([]string, machines)
	for i := range addrs {
		addrs[i] = freeLoopbackAddr()
	}
	peerList := strings.Join(addrs, ",")
	mode := "static plan"
	if rebalance {
		mode = "coordinated rebalancing"
	}
	fmt.Printf("launching %d worker processes over TCP (%s), %s\n", machines, peerList, mode)

	alertLine := make(chan string, machines)
	rebalanceLine := make(chan string, machines)
	lineDone := make(chan struct{}, machines)
	procs := make([]*exec.Cmd, machines)
	for m := 0; m < machines; m++ {
		args := []string{"-worker", fmt.Sprint(m), "-peers", peerList}
		if rebalance {
			args = append(args, "-rebalance")
		}
		cmd := exec.Command(exe, args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			log.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		procs[m] = cmd
		go func(m int) {
			defer func() { lineDone <- struct{}{} }()
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				line := sc.Text()
				fmt.Printf("  [worker %d] %s\n", m, line)
				if rest, ok := strings.CutPrefix(line, "alerts@"); ok {
					alertLine <- rest
				}
				if rest, ok := strings.CutPrefix(line, "rebalance@"); ok {
					rebalanceLine <- rest
				}
			}
		}(m)
	}
	for range procs {
		<-lineDone
	}
	for m, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			log.Fatalf("worker %d: %v", m, err)
		}
	}

	// Reference: the same computation in a single process. The drifted
	// workload burns extra CPU but emits identical values, so the
	// reference must match whether or not the workers rebalanced.
	refAlerts := singleProcessReference(rebalance)
	if rebalance {
		select {
		case got := <-rebalanceLine:
			var switches, moved int
			if _, err := fmt.Sscanf(got, "switches=%d moved=%d", &switches, &moved); err != nil {
				log.Fatalf("unparsable rebalance report %q: %v", got, err)
			}
			if switches < 1 || moved < 1 {
				log.Fatalf("rebalancing run performed %d switches moving %d vertices — expected the drift to force a migration between processes", switches, moved)
			}
			fmt.Printf("epoch switches: %d, vertices migrated between processes: %d\n", switches, moved)
		default:
			log.Fatal("coordinator reported no rebalance summary")
		}
	}
	select {
	case got := <-alertLine:
		want := fmt.Sprint(refAlerts)
		if got != want {
			log.Fatalf("distributed alerts %s != single-process %s — serializability broken", got, want)
		}
		fmt.Printf("multi-region alerts at phases: %s\n", got)
		fmt.Println("multi-process alert history identical to the single-process run ✓")
	default:
		log.Fatal("no worker reported an alert history")
	}
}

// runCrashRecover is the durability smoke: a coordinated rebalancing
// multiproc run in which every worker checkpoints to a per-machine WAL,
// one non-coordinator worker is SIGKILLed the moment its post-switch
// epoch starts, and a fresh process is pointed at the orphaned WAL with
// -recoverworker. The restarted process must replay its checkpoints,
// rejoin the flock, and the whole run must still produce an alert
// history bit-identical to the single-process reference. With tornTail
// the victim's WAL additionally loses its final bytes before the
// restart — the torn-write shape a crash between write and fsync
// leaves — forcing replay to repair the tail and the flock to roll
// back one epoch further.
func runCrashRecover(tornTail bool, walDir string) {
	const victim = 2 // any machine but 0 — machine 0 hosts the coordinator

	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	if walDir == "" {
		walDir, err = os.MkdirTemp("", "pipeline-wal-")
		if err != nil {
			log.Fatal(err)
		}
	} else {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			log.Fatal(err)
		}
		cleanWALs(walDir)
	}
	addrs := make([]string, machines)
	for i := range addrs {
		addrs[i] = freeLoopbackAddr()
	}
	peerList := strings.Join(addrs, ",")
	mode := "crash-recover"
	if tornTail {
		mode = "crash-recover, torn WAL tail"
	}
	fmt.Printf("launching %d durable worker processes over TCP (%s), %s, WALs in %s\n",
		machines, peerList, mode, walDir)

	// machines initial watchers + 1 for the restarted victim.
	alertLine := make(chan string, machines+1)
	recoverLine := make(chan string, machines+1)
	lineDone := make(chan struct{}, machines+1)
	epoch1 := make(chan struct{}, 1)

	launch := func(m int, rejoin bool) *exec.Cmd {
		args := []string{"-worker", fmt.Sprint(m), "-peers", peerList, "-rebalance", "-waldir", walDir}
		label := fmt.Sprintf("worker %d", m)
		if rejoin {
			args = append(args, "-recoverworker")
			label += " (restarted)"
		}
		cmd := exec.Command(exe, args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			log.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		go func() {
			defer func() { lineDone <- struct{}{} }()
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				line := sc.Text()
				fmt.Printf("  [%s] %s\n", label, line)
				if rest, ok := strings.CutPrefix(line, "alerts@"); ok {
					alertLine <- rest
				}
				if rest, ok := strings.CutPrefix(line, "recover@"); ok {
					recoverLine <- rest
				}
				if m == victim && !rejoin && strings.Contains(line, "epoch 1 running") {
					select {
					case epoch1 <- struct{}{}:
					default:
					}
				}
			}
		}()
		return cmd
	}

	procs := make([]*exec.Cmd, machines)
	for m := 0; m < machines; m++ {
		procs[m] = launch(m, false)
	}

	// Kill -9 the victim as soon as its post-switch epoch is running:
	// by then it holds durable checkpoints for epochs 0 and 1 and dies
	// with epoch 1 half-finished across the flock.
	select {
	case <-epoch1:
	case <-time.After(60 * time.Second):
		log.Fatalf("worker %d never reported epoch 1 running", victim)
	}
	if err := procs[victim].Process.Kill(); err != nil {
		log.Fatal(err)
	}
	procs[victim].Wait() // the SIGKILL error is the point; reap and move on
	fmt.Printf("killed worker %d (SIGKILL) mid-epoch\n", victim)

	if tornTail {
		tearWALTail(filepath.Join(walDir, fmt.Sprintf("machine-%d.wal", victim)))
	}
	restarted := launch(victim, true)

	for i := 0; i < machines+1; i++ {
		<-lineDone
	}
	for m, cmd := range procs {
		if m == victim {
			continue // already reaped above
		}
		if err := cmd.Wait(); err != nil {
			log.Fatalf("worker %d: %v", m, err)
		}
	}
	if err := restarted.Wait(); err != nil {
		log.Fatalf("restarted worker %d: %v", victim, err)
	}

	select {
	case got := <-recoverLine:
		var recoveries, rejoined int
		if _, err := fmt.Sscanf(got, "recoveries=%d rejoined=%d", &recoveries, &rejoined); err != nil {
			log.Fatalf("unparsable recover report %q: %v", got, err)
		}
		if recoveries < 1 || rejoined < 1 {
			log.Fatalf("coordinator performed %d recoveries rejoining %d machines — expected the kill to force a rejoin", recoveries, rejoined)
		}
		fmt.Printf("recoveries: %d, machines rejoined after crash: %d\n", recoveries, rejoined)
	default:
		log.Fatal("coordinator reported no recovery summary")
	}
	refAlerts := singleProcessReference(true)
	select {
	case got := <-alertLine:
		want := fmt.Sprint(refAlerts)
		if got != want {
			log.Fatalf("recovered alerts %s != single-process %s — recovery broke serializability", got, want)
		}
		fmt.Printf("multi-region alerts at phases: %s\n", got)
		fmt.Println("alert history after kill -9 and rejoin identical to the single-process run ✓")
	default:
		log.Fatal("no worker reported an alert history")
	}
}

// tearWALTail truncates the last few bytes off a WAL file, landing
// mid-record — exactly what an OS crash between write and fsync can
// leave behind. Replay must repair this by dropping the torn record.
func tearWALTail(path string) {
	st, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	if st.Size() < 8 {
		log.Fatalf("WAL %s too short to tear (%d bytes)", path, st.Size())
	}
	if err := os.Truncate(path, st.Size()-7); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tore WAL tail: %s truncated %d -> %d bytes (mid-record)\n", path, st.Size(), st.Size()-7)
}

// cleanWALs removes stale machine-*.wal files so a named -waldir can be
// reused across runs (a WAL only accepts checkpoints newer than the
// ones it already holds).
func cleanWALs(dir string) {
	stale, err := filepath.Glob(filepath.Join(dir, "machine-*.wal"))
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range stale {
		if err := os.Remove(p); err != nil {
			log.Fatal(err)
		}
	}
}

// singleProcessReference computes the oracle alert history on one
// machine, over the same workload the workers ran (drifted when they
// rebalanced — the drift changes cost, never values).
func singleProcessReference(drifted bool) []int {
	driftAt := 0
	if drifted {
		driftAt = phases / 4
	}
	_, refAlerts, _ := run(1, nil, false, driftAt)
	return refAlerts
}

// compareAlerts fails the run loudly when the partitioned alert history
// diverges from the reference — that would mean serializability broke.
func compareAlerts(got, want []int) {
	if len(got) != len(want) {
		log.Fatalf("partitioned run fired %d alerts, single machine %d — serializability broken",
			len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			log.Fatalf("alert %d at phase %d, single machine at %d — serializability broken",
				i, got[i], want[i])
		}
	}
}

// freeLoopbackAddr reserves a loopback port by briefly listening on it.
// The tiny race between Close and the worker's Listen is acceptable in
// a demo launcher.
func freeLoopbackAddr() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}
