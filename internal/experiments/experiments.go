// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Table 1 (raw Madeleine), Figures 6–8 (ch_mad vs
// baselines on TCP, SCI, BIP), Figure 9 (multi-protocol polling overhead),
// Table 2 (ch_mad summary), plus the ablations, the §6 forwarding
// extension and the cluster-of-clusters extensions. Used by
// cmd/experiments and by the top-level benchmarks.
//
// Every number comes out of one of two kernels. The paper's figures and
// the two ablations are ping-pong sweeps (mpptest.PingPong behind
// mpptest.MPIPingPong: one session per sweep, a barrier before each size)
// and are rows of the registry table below, not functions. The extension
// experiments time collectives with measure.go's completion — from a
// synchronised start to the last rank's return, one operation per fresh
// session except on scale's 1024-rank machine — and keep for themselves
// only what differs between them: topology, sizes, and the counters they
// read off the session.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"mpichmad/internal/baselines"
	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/mpptest"
	"mpichmad/internal/netsim"
	"mpichmad/internal/stats"
)

// Result is one regenerated artifact: rendered text plus the raw series
// for programmatic checks.
type Result struct {
	ID     string
	Title  string
	Text   string
	Series []*stats.Series
	// Unit is what Text's table shows of every point — unitTime or
	// unitBandwidth — and what CSV exports. Empty for the two summary
	// tables, whose columns mix both: they print as text even under -csv.
	Unit string
}

// The two ways a point is rendered: its one-way transfer time in
// microseconds, or the bandwidth that time amounts to.
const (
	unitTime      = "us"
	unitBandwidth = "MB/s"
)

// valueIn reads a point in unit.
func valueIn(unit string) func(stats.Point) float64 {
	if unit == unitBandwidth {
		return stats.Point.BandwidthMBs
	}
	return stats.Point.LatencyUS
}

// CSV renders the series for plotting, in the unit of the table, which the
// leading comment line names.
func (r *Result) CSV() string {
	return fmt.Sprintf("# %s (%s, %s)\n", r.Title, r.ID, r.Unit) + stats.CSV(r.Series, valueIn(r.Unit))
}

func render(id, title, unit string, series []*stats.Series) *Result {
	r := &Result{ID: id, Title: title, Series: series, Unit: unit}
	what := " — transfer time"
	if unit == unitBandwidth {
		what = " — bandwidth"
	}
	r.Text = stats.Table(title+what, unit, series, valueIn(unit))
	return r
}

// curve is one line of a ping-pong figure: the sweep's sizes in, a named
// series out.
type curve func(sizes []int) (*stats.Series, error)

// chmad is the MPI ping-pong between ranks 0 and 1 of a topology, with an
// optional adjustment of the built session.
func chmad(name string, topo cluster.Topology, mutate func(*cluster.Session)) curve {
	return func(sizes []int) (*stats.Series, error) {
		return mpptest.MPIPingPong(name, topo, sizes, mpptest.Config{Mutate: mutate})
	}
}

// rawMadeleine is the bare-library ping-pong over one protocol's network.
func rawMadeleine(protocol string) curve {
	return func(sizes []int) (*stats.Series, error) {
		params, _ := netsim.ByProtocol(protocol)
		return mpptest.RawMadeleine("raw_Madeleine", params, sizes, mpptest.Config{})
	}
}

// reference is a comparator's published model evaluated over the sweep.
func reference(m *baselines.ReferenceModel) curve {
	return func(sizes []int) (*stats.Series, error) { return m.Series(sizes), nil }
}

// p4Topo is the two-node TCP topology under the ch_p4 baseline device.
func p4Topo() cluster.Topology {
	topo := cluster.TwoNodes("tcp")
	topo.Device = "ch_p4"
	return topo
}

// multiTopo returns the Fig. 9 topology: SCI and TCP both connecting the
// two nodes; traffic routes over SCI while the TCP polling thread idles.
func multiTopo() cluster.Topology {
	return cluster.Topology{
		Nodes: []cluster.NodeSpec{{Name: "n0", Procs: 1}, {Name: "n1", Procs: 1}},
		Networks: []cluster.NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"n0", "n1"}},
			{Name: "tcp", Protocol: "tcp", Nodes: []string{"n0", "n1"}},
		},
	}
}

// switchAt is ablation X1's curve: the SCI+TCP configuration with the
// elected eager->rendez-vous threshold overridden on every rank.
func switchAt(sp int) curve {
	return chmad("switch="+stats.SizeLabel(sp), multiTopo(), func(sess *cluster.Session) {
		for _, rk := range sess.Ranks {
			rk.ChMad.SetSwitchPoint(sp)
		}
	})
}

// The curves of the paper's figures. The per-network ones run ch_mad on a
// two-node single-network topology ("those figures were obtained by
// compiling the device in a mono-protocol fashion", §5).
var (
	fig6 = []curve{chmad("ch_mad", cluster.TwoNodes("tcp"), nil), chmad("ch_p4", p4Topo(), nil), rawMadeleine("tcp")}
	fig7 = []curve{chmad("ch_mad", cluster.TwoNodes("sisci"), nil), rawMadeleine("sisci"),
		reference(baselines.ScaMPI()), reference(baselines.SCIMPICH())}
	fig8 = []curve{chmad("ch_mad", cluster.TwoNodes("bip"), nil), rawMadeleine("bip"),
		reference(baselines.MPIGM()), reference(baselines.MPICHPM())}
	fig9 = []curve{chmad("SCI_thread_only", cluster.TwoNodes("sisci"), nil),
		chmad("SCI_thread_+_TCP_thread", multiTopo(), nil)}
)

// experiment is one row of the registry: a ping-pong figure given as data
// (title, unit, sizes, curves), or anything else given as a function.
type experiment struct {
	id     string
	title  string
	unit   string
	sizes  []int
	curves []curve
	run    func() (*Result, error)
}

// registry lists every experiment in paper order: the one table All, ByID
// and IDs read, so an experiment cannot be in one and missing from another.
// Part (a) of a figure is transfer time over 1 B–1 KB, part (b) bandwidth
// over 1 B–1 MB. X1 sweeps the switch point on SCI+TCP, showing why §4.2.2
// elects SCI's 8 KB; X2 compares the §4.2.2 header/body split against the
// naive constant-size MPID_PKT_MAX_DATA_SIZE eager buffer on SCI (padding
// waste plus a sender-side copy).
var registry = []experiment{
	{id: "table1", run: table1},
	{id: "fig6a", title: "Figure 6: TCP/Fast-Ethernet", unit: unitTime, sizes: stats.Sizes1B1KB(), curves: fig6},
	{id: "fig6b", title: "Figure 6: TCP/Fast-Ethernet", unit: unitBandwidth, sizes: stats.Sizes1B1MB(), curves: fig6},
	{id: "fig7a", title: "Figure 7: SISCI/SCI", unit: unitTime, sizes: stats.Sizes1B1KB(), curves: fig7},
	{id: "fig7b", title: "Figure 7: SISCI/SCI", unit: unitBandwidth, sizes: stats.Sizes1B1MB(), curves: fig7},
	{id: "fig8a", title: "Figure 8: BIP/Myrinet", unit: unitTime, sizes: stats.Sizes1B1KB(), curves: fig8},
	{id: "fig8b", title: "Figure 8: BIP/Myrinet", unit: unitBandwidth, sizes: stats.Sizes1B1MB(), curves: fig8},
	{id: "fig9a", title: "Figure 9: multi-protocol polling overhead on SCI", unit: unitTime, sizes: stats.Sizes1B1KB(), curves: fig9},
	{id: "fig9b", title: "Figure 9: multi-protocol polling overhead on SCI", unit: unitBandwidth, sizes: stats.Sizes1B1MB(), curves: fig9},
	{id: "table2", run: table2},
	{id: "ablation-switch", unit: unitBandwidth,
		title:  "Ablation X1: switch-point election on SCI+TCP (unique threshold forced by MPID_Device)",
		sizes:  []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10},
		curves: []curve{switchAt(2 << 10), switchAt(8 << 10), switchAt(64 << 10)}},
	{id: "ablation-split", unit: unitTime,
		title: "Ablation X2: eager header/body split vs monolithic padded buffer (SCI)",
		sizes: []int{64, 256, 1 << 10, 4 << 10, 8 << 10},
		curves: []curve{chmad("header/body split", cluster.TwoNodes("sisci"), nil),
			chmad("monolithic buffer", cluster.TwoNodes("sisci"), func(sess *cluster.Session) {
				for _, rk := range sess.Ranks {
					rk.ChMad.MonolithicEager = true
				}
			})}},
	{id: "forwarding", run: forwarding},
	{id: "hcoll", run: hierCollectives},
	{id: "gateway", run: gatewayCollectives},
	{id: "adaptive", run: adaptiveMultipath},
	{id: "heteromux", run: heteroMux},
	{id: "multileader", run: multiLeader},
	{id: "scale", run: scale},
}

// do runs one registry row.
func (e experiment) do() (*Result, error) {
	if e.run != nil {
		return e.run()
	}
	var series []*stats.Series
	for _, c := range e.curves {
		s, err := c(e.sizes)
		if err != nil {
			return nil, err
		}
		series = append(series, s)
	}
	return render(e.id, e.title, e.unit, series), nil
}

// All runs every experiment in paper order.
func All() ([]*Result, error) {
	var out []*Result
	for _, e := range registry {
		r, err := e.do()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// IDs lists the experiment ids in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// ByID runs one experiment by its id (e.g. "fig7b").
func ByID(id string) (*Result, error) {
	for _, e := range registry {
		if e.id == id {
			return e.do()
		}
	}
	return nil, fmt.Errorf("unknown id %q (the ids are %s)", id, strings.Join(IDs(), ", "))
}

// figure is one number the paper publishes in its summary tables (§5): what
// series of experiment exp measures at size, in unit, and how far in per cent
// the simulation may stray from it.
type figure struct {
	exp, series, unit string
	size              int
	want, tolPct      float64
}

// published holds the paper's 15 figures, each once: Table 1's raw Madeleine
// latency at 4 B and bandwidth at 8 MB, Table 2's ch_mad latency at 0 B and
// 4 B and bandwidth at 8 MB, per protocol in the tables' row order. The tables
// print them beside the simulated values; the claims ledger judges each.
var published = []figure{
	{"table1", "raw_tcp", unitTime, 4, 121, 5},
	{"table1", "raw_tcp", unitBandwidth, 8 * netsim.MB, 11.2, 3},
	{"table1", "raw_bip", unitTime, 4, 9.2, 8},
	{"table1", "raw_bip", unitBandwidth, 8 * netsim.MB, 122, 3},
	{"table1", "raw_sisci", unitTime, 4, 4.4, 12},
	{"table1", "raw_sisci", unitBandwidth, 8 * netsim.MB, 82.6, 2.4},
	{"table2", "chmad_tcp", unitTime, 0, 130, 5},
	{"table2", "chmad_tcp", unitTime, 4, 148.7, 5},
	{"table2", "chmad_tcp", unitBandwidth, 8 * netsim.MB, 11.2, 3},
	{"table2", "chmad_bip", unitTime, 0, 16.9, 10},
	{"table2", "chmad_bip", unitTime, 4, 18.9, 12},
	{"table2", "chmad_bip", unitBandwidth, 8 * netsim.MB, 115, 8},
	{"table2", "chmad_sisci", unitTime, 0, 13, 8},
	{"table2", "chmad_sisci", unitTime, 4, 20, 8},
	{"table2", "chmad_sisci", unitBandwidth, 8 * netsim.MB, 82.5, 3},
}

// Published returns the paper's figure for series at size, the per cent the
// simulation may stray from it, and its unit ("us" or "MB/s"); all zero where
// the paper publishes none. The tests below experiments that check a layer
// against Tables 1 and 2 read their figures here.
func Published(series string, size int) (want, tolPct float64, unit string) {
	for _, f := range published {
		if f.series == series && f.size == size {
			want, tolPct, unit = f.want, f.tolPct, f.unit
		}
	}
	return want, tolPct, unit
}

// summary renders one of the paper's two summary tables: under head, a row
// per protocol in format row — its label, then for each size the series run
// measures on its network, the simulated value and the paper's figure. The
// Result has no Unit: its columns mix µs and MB/s.
func summary(id, title, head, row string, label func(netsim.Params) string, run func(netsim.Params) (*stats.Series, error)) (*Result, error) {
	r := &Result{ID: id, Title: title, Text: "# " + title + "\n" + head + "\n"}
	for _, params := range []netsim.Params{netsim.FastEthernetTCP(), netsim.MyrinetBIP(), netsim.SCISISCI()} {
		s, err := run(params)
		if err != nil {
			return nil, err
		}
		r.Series = append(r.Series, s)
		cells := []any{label(params)}
		for _, p := range s.Points {
			want, _, unit := Published(s.Name, p.Size)
			cells = append(cells, valueIn(unit)(p), want)
		}
		r.Text += fmt.Sprintf(row, cells...)
	}
	return r, nil
}

// table1 regenerates Table 1: raw Madeleine latency (4 B) and bandwidth
// (8 MB) per protocol, in the series raw_<protocol>. One round trip a size:
// a raw round trip repeats to the nanosecond.
func table1() (*Result, error) {
	return summary("table1", "Table 1: raw Madeleine latency and bandwidth",
		fmt.Sprintf("%-14s %14s %12s %18s %14s", "protocol", "latency(us)", "paper(us)", "bandwidth(MB/s)", "paper(MB/s)"),
		"%-14s %14.1f %12.1f %18.1f %14.1f\n", func(p netsim.Params) string { return p.Protocol + "/" + p.Network },
		func(p netsim.Params) (*stats.Series, error) {
			return mpptest.RawMadeleine("raw_"+p.Protocol, p, []int{4, 8 * netsim.MB}, mpptest.Config{Iters: 1})
		})
}

// table2 regenerates Table 2: ch_mad 0 B / 4 B latency and 8 MB bandwidth
// per protocol, in the series chmad_<protocol>.
func table2() (*Result, error) {
	return summary("table2", "Table 2: ch_mad summary of performance",
		fmt.Sprintf("%-8s %11s %10s %11s %10s %12s %12s", "proto", "lat0B(us)", "paper", "lat4B(us)", "paper", "bw8MB(MB/s)", "paper"),
		"%-8s %11.1f %10.1f %11.1f %10.1f %12.1f %12.1f\n", func(p netsim.Params) string { return p.Protocol },
		func(p netsim.Params) (*stats.Series, error) {
			return mpptest.MPIPingPong("chmad_"+p.Protocol, cluster.TwoNodes(p.Protocol), []int{0, 4, 8 * netsim.MB}, mpptest.Config{Iters: 2})
		})
}

// forwarding (X3) measures the §6 gateway store-and-forward extension:
// latency SCI->gateway->Myrinet versus the direct SCI path. The routed
// sweep is one session, ranks 0 and 2 bouncing through the gateway (rank
// 1 forwards only), with no barrier between sizes.
func forwarding() (*Result, error) {
	sizes := []int{4, 256, 4 << 10, 64 << 10, 1 << 20}
	direct, err := mpptest.MPIPingPong("direct SCI", cluster.TwoNodes("sisci"), sizes, mpptest.Config{})
	if err != nil {
		return nil, err
	}
	sess, err := cluster.Build(cluster.Topology{
		Nodes: []cluster.NodeSpec{{Name: "n0", Procs: 1}, {Name: "gw", Procs: 1}, {Name: "n1", Procs: 1}},
		Networks: []cluster.NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"n0", "gw"}},
			{Name: "myri", Protocol: "bip", Nodes: []string{"gw", "n1"}},
		},
		Forwarding: true,
	})
	if err != nil {
		return nil, err
	}
	routed := &stats.Series{Name: "SCI->gw->Myrinet"}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		for _, size := range sizes {
			oneWay, err := mpptest.PingPong(sess.S, comm, 0, 2, size, 2)
			if err != nil {
				return err
			}
			if rank == 0 {
				routed.Add(size, oneWay)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return render("forwarding",
		"Extension X3: heterogeneous forwarding through a gateway node (§6 future work)",
		unitTime, []*stats.Series{direct, routed}), nil
}

// hierCollectives (X4) compares the flat (topology-blind), two-level
// (hierarchy-aware) and ring collective algorithms on a two-cluster
// heterogeneous topology: two 4-node SCI islands joined by a TCP
// backbone, with node declarations interleaved so consecutive ranks
// alternate islands (the adversarial placement for a flat binomial tree).
// Reported value is one operation's completion: from a synchronised start
// to the last rank's return.
//
// The *_cap series rerun the headline operations with the backbone's
// aggregate-bandwidth arbiter on (netsim.Params.NetworkBandwidth set to
// the TCP rate): every backbone crossing now queues at the shared trunk,
// so flat algorithms stop getting their many crossings for free and the
// two-level Bcast/Allreduce win on *time* from a few hundred bytes up
// (at 8 B the extra leader hop still costs ~1 us), not just on message
// count — flat Bcast pushes n/2 copies of the vector through the trunk
// where two-level pushes one. Alltoall is the honest exception:
// bundling conserves backbone bytes exactly — every (src, dst) block is
// unique — so past the setup-dominated regime both algorithms sit on the
// same trunk serialization floor and two-level only wins below a few KB
// per block. The contention table below the sweep reports the trunk
// queueing delay and peak occupancy each algorithm inflicted at the
// largest payload.
//
// Allreduce_ring is the flat bandwidth-optimal ring (reduce-scatter +
// allgather); Allreduce_ring2l_cap is its two-level form (intra-cluster
// rings around the single leader exchange) under the capped backbone.
//
// The *_ovl series measure the schedule engine's overlap: every rank
// starts the nonblocking two-level operation, runs a chunked compute loop
// sized to the blocking two-level time at that payload, then waits; the
// reported value is the exposed (non-hidden) communication time, i.e.
// the composite's completion minus the injected compute.
func hierCollectives() (*Result, error) {
	sizes := []int{8, 256, 4 << 10, 64 << 10, 256 << 10}
	largest := sizes[len(sizes)-1]
	topo, capped := hierTopo(), hierTopoCapped()
	benches := []struct {
		name string
		topo cluster.Topology
		mode mpi.CollMode
		op   collOp
	}{
		{"Bcast_flat", topo, mpi.CollFlat, bcast},
		{"Bcast_2level", topo, mpi.CollHier, bcast},
		{"Allreduce_flat", topo, mpi.CollFlat, allreduce},
		{"Allreduce_2level", topo, mpi.CollHier, allreduce},
		{"Allreduce_ring", topo, mpi.CollRing, allreduce},
		{"Allgather_flat", topo, mpi.CollFlat, allgather},
		{"Allgather_2level", topo, mpi.CollHier, allgather},
		{"Alltoall_flat", topo, mpi.CollFlat, alltoall},
		{"Alltoall_2level", topo, mpi.CollHier, alltoall},
		{"Bcast_flat_cap", capped, mpi.CollFlat, bcast},
		{"Bcast_2level_cap", capped, mpi.CollHier, bcast},
		{"Allreduce_flat_cap", capped, mpi.CollFlat, allreduce},
		{"Allreduce_2level_cap", capped, mpi.CollHier, allreduce},
		{"Allreduce_ring2l_cap", capped, mpi.CollHierRing, allreduce},
		{"Alltoall_flat_cap", capped, mpi.CollFlat, alltoall},
		{"Alltoall_2level_cap", capped, mpi.CollHier, alltoall},
	}
	blocking := make(map[string]*stats.Series)
	var contention strings.Builder
	var series []*stats.Series
	for _, bm := range benches {
		s := &stats.Series{Name: bm.name}
		for _, size := range sizes {
			sess, err := forced(bm.topo, bm.mode)
			if err != nil {
				return nil, err
			}
			took, _, err := completion(sess, nil, bm.op.at(size))
			if err != nil {
				return nil, err
			}
			s.Add(size, took[0])
			if st := sess.Networks["wan"].Stats; size == largest && (st.TrunkQueueDelay > 0 || st.TrunkPeak > 0) {
				fmt.Fprintf(&contention, "%-22s %18.2f %12d\n", bm.name, st.TrunkQueueDelay.Seconds()*1e3, st.TrunkPeak)
			}
		}
		blocking[bm.name] = s
		series = append(series, s)
	}

	// Nonblocking overlap: exposed communication time of the two-level
	// Allreduce and Alltoall when computation fills the collective's
	// blocking duration. The same kernel, with a composite operation:
	// start the Icoll, compute in chunks, wait.
	ovls := []struct {
		name, base string
		start      func(comm *mpi.Comm, size int) (*mpi.CollRequest, error)
	}{
		{"Allreduce_2level_ovl", "Allreduce_2level", func(comm *mpi.Comm, size int) (*mpi.CollRequest, error) {
			return comm.Iallreduce(make([]byte, size), make([]byte, size), size, mpi.Byte, mpi.OpMax)
		}},
		{"Alltoall_2level_ovl", "Alltoall_2level", func(comm *mpi.Comm, size int) (*mpi.CollRequest, error) {
			n := size * comm.Size()
			return comm.Ialltoall(make([]byte, n), make([]byte, n), size, mpi.Byte)
		}},
	}
	for _, ob := range ovls {
		s := &stats.Series{Name: ob.name}
		for _, size := range sizes {
			sess, err := forced(topo, mpi.CollHier)
			if err != nil {
				return nil, err
			}
			base, _ := blocking[ob.base].At(size)
			compute := base.OneWay
			const chunks = 64
			took, _, err := completion(sess, nil, func(comm *mpi.Comm) error {
				req, err := ob.start(comm, size)
				if err != nil {
					return err
				}
				for k := 0; k < chunks; k++ {
					sess.Ranks[comm.Rank()].Proc.Compute(compute / chunks)
				}
				return req.Wait()
			})
			if err != nil {
				return nil, err
			}
			s.Add(size, max(took[0]-compute, 0))
		}
		series = append(series, s)
	}
	res := render("hcoll",
		"Extension X4: flat vs two-level vs ring vs nonblocking-overlap collectives on a 2x4-rank cluster-of-clusters",
		unitTime, series)

	// Backbone contention table: trunk queueing inflicted at the largest
	// payload by each algorithm on the capped backbone.
	var b strings.Builder
	b.WriteString(res.Text)
	fmt.Fprintf(&b, "\nBackbone contention at %s (wan trunk capped at the TCP rate):\n", stats.SizeLabel(largest))
	fmt.Fprintf(&b, "%-22s %18s %12s\n", "series", "queue delay(ms)", "peak depth")
	b.WriteString(contention.String())

	// MPI_Init autotuner: the crossover table measured on the capped
	// topology (what CollAuto dispatches through when Topology.Autotune
	// is on).
	tuned, err := autotunedTable(capped)
	if err != nil {
		return nil, err
	}
	b.WriteString("\nAutotuned crossover table (capped backbone, measured at MPI_Init):\n")
	fmt.Fprintf(&b, "%-14s %14s %14s\n", "operation", "payload <=", "algorithm")
	for _, tc := range tuned {
		bound := "inf"
		if tc.MaxBytes < math.MaxInt {
			bound = stats.SizeLabel(tc.MaxBytes)
		}
		fmt.Fprintf(&b, "%-14s %14s %14s\n", tc.Op, bound, tc.Algo)
	}
	res.Text = b.String()
	return res, nil
}

// autotunedTable runs the MPI_Init autotuner on a topology and returns
// rank 0's installed crossover table.
func autotunedTable(topo cluster.Topology) ([]mpi.TuneChoice, error) {
	topo.Autotune = true
	sess, err := cluster.Build(topo)
	if err != nil {
		return nil, err
	}
	if err := sess.Run(func(rank int, comm *mpi.Comm) error { return nil }); err != nil {
		return nil, err
	}
	return sess.Ranks[0].MPI.TuneSnapshot(), nil
}

// hierTopoCapped is hierTopo with the backbone's aggregate-bandwidth
// arbiter on: the wan models one shared trunk at the TCP rate, so
// concurrent crossings queue instead of riding private per-pair pipes.
func hierTopoCapped() cluster.Topology {
	topo := hierTopo()
	wan := netsim.FastEthernetTCP()
	wan.NetworkBandwidth = wan.Bandwidth
	for i := range topo.Networks {
		if topo.Networks[i].Name == "wan" {
			topo.Networks[i].Params = &wan
		}
	}
	return topo
}

// hierTopo is the X4 benchmark topology: two SCI islands, interleaved
// rank placement, TCP backbone.
func hierTopo() cluster.Topology {
	var nodes []cluster.NodeSpec
	var a, b, all []string
	for i := 0; i < 4; i++ {
		an, bn := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		nodes = append(nodes, cluster.NodeSpec{Name: an, Procs: 1}, cluster.NodeSpec{Name: bn, Procs: 1})
		a, b = append(a, an), append(b, bn)
		all = append(all, an, bn)
	}
	return cluster.Topology{
		Nodes: nodes,
		Networks: []cluster.NetworkSpec{
			{Name: "sciA", Protocol: "sisci", Nodes: a},
			{Name: "sciB", Protocol: "sisci", Nodes: b},
			{Name: "wan", Protocol: "tcp", Nodes: all},
		},
	}
}
