// Package mpi is the application-facing MPI layer of the reproduction:
// communicators, point-to-point messaging, datatypes, reduction ops and
// the collective operations, built on the adi matching engine and the
// simulated devices below.
//
// # The collective schedule model
//
// Since PR 2 every collective — blocking or nonblocking, flat or
// hierarchical — is *schedule-driven*. Calling a collective compiles the
// selected algorithm into a schedule (schedule.go): a list of rounds
// whose steps are plain data — send, recv, fold (a receive reduced into
// a buffer in its own round), local reduce, local copy — with inter-round
// data flow expressed through shared staging buffers.
// Where a schedule runs is decided in one place, submit (nbc.go). A
// blocking collective runs on the thread that called it, as every blocking
// operation does in the paper, when its communicator's engine has nothing
// queued or running; otherwise it queues behind that work. The tag sequence
// is the same either way. An Icoll always queues: the communicator's
// progress engine executes queued schedules in order on a dedicated Marcel
// thread, so transfers advance while the application thread blocks, yields
// or computes: its CPU charges preempt the application's marcel.Compute
// within a marcel.Quantum, as Marcel's threads share the CPU with a PM2
// application (§3.3). That is the paper's decoupling of communication
// progress from the application, applied to nonblocking collectives (the
// libNBC/MPI-3 design). That thread is one per communicator and resident:
// started as a daemon by the first collective that queues — a program of
// blocking collectives starts none — and parked on the engine's queue
// between jobs. Being a daemon it does not hold the run: an Icoll nobody
// waits for ends where the run ends, except on the world, where
// MPI_Finalize's barrier queues behind it.
//
// A round has two send lanes. The executor pre-posts every receive of a
// round, then injects its sends one after another, and a sender stays inside
// madeleine's EndPacking until the wire has taken its bytes — so one thread
// leaves a rank's fast fabric idle for as long as its bridge drains. A send
// step marked for the round's second lane (schedBuilder.sendAside) is
// injected by a second Marcel thread of the same process while the round's
// plain sends run inline: the paper's one thread per network (§4.2), for the
// length of a round. The round ends when both lanes and all receives are
// done; the two threads' CPU charges contend through marcel.Charge like any
// two threads of a process; the first error on either lane ends the schedule,
// with the staging left out as after any failed round. The lane thread is
// resident like the engine thread, one per communicator, started by the
// first round that has two lanes (collEngine.lane, nbc.go). The lane is the
// one thing the overlap adds to the IR, and a compiler that uses it owes it
// three things:
//
//   - Eager or posted. A send on either lane completes when the wire has it
//     (eager) or when the peer has posted the receive (rendez-vous). The slab
//     pipeline posts every receive in the round of the same index as its
//     send on every rank, so induction over the round index holds: round t
//     needs only that every rank reached round t. A send whose receive is
//     posted later than that — a Bcast sink matches what it was streamed
//     after its own cycles — must be eager, or the two wait for each other
//     (seen on the Myrinet island: 16 KiB shards are rendez-vous bodies
//     there). bcastMulti cuts no segment above any network's eager threshold
//     (chainSegment) and streams during the cycles only a segmented shard,
//     never one that ships whole.
//   - One pair, one lane. Messages of a schedule share a tag and match FIFO
//     per source. Within a round the two lanes run concurrently, so a
//     directed pair may have sends on one of them only; across rounds the
//     order is the rounds', because a round does not end before both its
//     lanes have. The builders send bridge traffic plain and intra-cluster
//     traffic aside, and the two never share a pair.
//   - The second lane exists beside a first. A round that sends nothing
//     plain runs its marked sends inline, in listed order (endRound clears
//     the marks): no thread hand-off where nothing could overlap, and a
//     schedule of one slab is, step for step, the schedule it was before
//     there were lanes — which is what keeps every pinned line below one
//     slab byte-identical.
//
// What a rank keeps is per communicator, not per rank of the communicator.
// The dense view of the hierarchy a compiler runs on (commTopo) is two
// parts: what follows from the group and the hierarchy alone (groupView:
// membership, leaders, leader sets) and where this rank stands in it. The
// first part is built once per group: for the identity group — the world
// and its Dups, which share the world's group slice — by whichever rank
// asks first, and kept on the Hierarchy all ranks of a session share until
// RefreshHierarchy drops it. A Split builds its own on every member, with
// the same code: no workload splits at a scale where that shows. The
// world's group itself is one slice per session (NewProcess is handed it).
//
// Staging is leased, not allocated — and not taken at all where the user's
// receive buffer can do the job. The packed vector a schedule finishes in
// is asked for with schedBuilder.landing(recv, n, dt): for a dense datatype
// (IsContiguous) that is recv itself, the receives and reductions of
// the schedule work in it, and the completion closure's unpack finds the
// bytes in place; for a strided one, or a receive buffer that is not
// significant (Ireduce hands the compilers none off the root, so nothing
// can write there), it is staging. That covers a Bcast's vector off the
// root, the accumulator of every Allreduce form and of a Reduce's root,
// the assembled vector of the two-level and flat Allgather, each cluster's
// bundle of the multi-leader Allgather when the cluster's members are
// consecutive ranks (a bundle is in member order, which is then the
// receive vector's), and the receive vector of the flat, two-level and
// multi-leader Alltoall. The Alltoalls and the multi-leader Allgather land
// there only when recv is not the send buffer itself (collArgs.recvApart),
// because they still read the send buffer after the first received block
// has landed. The ring ReduceScatter (its accumulator is the whole vector,
// recv one block) keeps its staging. The send side's twin,
// schedBuilder.packed(send, count, dt), is send itself for a dense datatype
// and staging the compiler packs a strided one into. Every memTime charge
// and every step is where it was, so the schedule fingerprint cannot tell.
// Every other staging buffer is a buffer of the rank's list
// (adi.Engine.Bufs: in a cluster session the session's one netsim.BufList,
// which also holds every device's wire buffers and unexpected-message
// stashes), with one of two lifetimes. A received partial that one reduce
// of its own round reads and nothing else does — a child's partial in the
// tree reduction, the block from the left in the ring reduce-scatter, a
// child's slab in the multi-leader Allreduce — is a fold step
// (schedBuilder.fold): the executor posts it as a receive with a lease
// length and no buffer (adi.RecvReq.Lease), the engine leases the buffer
// when the message matches, and the executor sends it home once the
// round's local steps, the fold among them in listed order, are done. A
// tree Allreduce's leaves land their partials at their parents in the same
// instant, so about half as many partials are held at once as the tree has
// edges, where a lease from compile to completion held every one of them.
// Every buffer a later round or the completion closure reads is
// schedBuilder.stage(n), leased at compile time, recorded on the schedule
// and sent home by execSchedule — the one place a schedule ends, on its
// caller or on the progress thread — after the completion closure has returned:
// bundles the leaders exchange and fold bundle by bundle, and the
// multi-leader partials handed across the bridges. A lease comes with
// whatever its last holder left in it, so a compiler fills every byte it
// later reads or sends (go test poisons a buffer when it is handed out and
// when it goes home, which is how the fingerprint and property suites check
// that). A schedule that ends in error keeps its leases, and a round that
// fails keeps those its folds took: a receive a failed round pre-posted may
// still land in them, so they are left to the GC with the schedule and the
// engine's dropped round storage. The autotuner's probe buffers are taken
// from and returned to the same list around each use. The list keeps each
// size class's high-water mark for the session; since every rank and
// network shares it, what MPI_Init's sweep leaves home serves the
// application's collectives and their wire buffers afterwards, on any rank.
//
// A schedule's life has three stages. It is compiled at submit, into a
// schedule the process recycled when it has one (Process.newSched): its
// builder, the storage of its rounds and of each round's steps are reused
// round by round (schedBuilder.add), and its event names when the form is
// the same. It is
// run by the engine, which re-arms one receive-request slice and one
// countdown event for every round that receives (collEngine.arm) instead of
// making them per round; the event takes the schedule's round name, so a
// deadlock dump still names the schedule. It then ends in execSchedule. A
// schedule that succeeded sends its leases home and is recycled
// (Process.recycle): its steps, lease list and completion closure are
// cleared first, so a schedule on the free list pins no user buffer. A
// schedule that failed is kept as it is — steps, staging and the engine's
// round storage alike — because a receive its failed round pre-posted may
// still land there: it goes to the GC, and the engine makes new round
// storage for its next round. Two Icolls submitted back to back are two
// schedules, since a schedule returns to the list only once it has run.
//
// Requests live as long as somebody can hold them, and no longer. An
// Icoll's CollRequest is its caller's: it may wait on it and test it as
// often as it likes, and the GC takes it. A blocking collective that runs
// on its caller has no request; one that queues waits on a request nobody
// else can hold, which the GC takes when it returns. The
// point-to-point sends of every schedule step and of the blocking Send and
// Ssend take their adi.SendReq, event included, from the engine's free list
// (Comm.address) and release it when the send is complete (sendWait); the
// free list's generation count makes a second Release panic, and a stale
// Wait or Fire hits the retired event. The device requests of an Isend and
// an Irecv come from the same list and go back at the first Wait of the
// mpi.Request, which keeps the outcome for a later one; that Request is
// the caller's, as an Icoll's is. Below the requests, a message allocates
// nothing either: Madeleine's head packets are records of the network's
// free list, sent home when the receiver ends the message, and the ch_mad
// header is encoded into the head's aggregation area.
//
// # Datatypes and who copies a payload
//
// A (buffer, count, datatype) triple reaches the devices as dense bytes.
// Every datatype is flattened by its constructor into strided runs {off,
// n, count, stride} (datatype.go): adjacent blocks merge and equal blocks
// at equal spacing fold, so a Vector over a dense base is one run. A type
// whose runs cover its extent once, in order — one run of one block, since
// touching blocks merge — is dense (IsContiguous, a flag set at
// construction; a Size equal to the Extent is not enough: two halves listed
// back to front pack the back half first). A dense type is never walked: it travels from and lands in
// the user's buffer, unpacked in one copy or none when in place. A strided
// one is packed into, or lands in, a lease of the rank's buffer list — in
// Send, Ssend and Isend, in Irecv until its Wait unpacks it, in a
// schedule's compiler (schedBuilder.packed, landing) for the schedule's
// life — by one loop over the runs; PackBuf's fresh slice is for callers
// outside the package. Only whole elements that arrived are unpacked: a
// short message (the count is an upper bound) or a trailing partial
// element leaves the rest of the user's buffer as it was. The callers
// charge these copies (memTime), whatever path the host takes. Below this
// layer (internal/madeleine) a body is lent to the wire, not copied into
// it: a rendez-vous body goes from the sender's buffer into the posted
// receive buffer in one copy, made by whichever side gets there first; an
// eager or relayed one is copied into a wire buffer when its send completes
// and out of it where it lands, because the device that takes it must own
// it.
//
// # Algorithms: one form table, a handful of phase builders
//
// Which algorithm exists for which operation is written down once, in the
// collForms table (forms.go): one row per (operation, algorithm) naming
// the communicator shape the form needs — any, multi-cluster, or
// multi-cluster with a multi-gateway leader set — and the compiler that
// builds it. Everything that used to enumerate that cross-product reads
// the table: startColl dispatches through it, sanitizeAlgo degrades an
// unrunnable choice along the algorithm's fallback columns until a row
// fits, and the autotuner's candidates for an operation are its runnable
// rows in table order — flat, ring, 2level, 2level-seg (Bcast only),
// 2level-ring, 2level-multi — which fixes the probe sequence, the virtual
// cost of MPI_Init and the table it installs. Selection itself (chooseAlgo,
// topology.go) stays a policy: forced mode, then the measured table, then
// the analytic thresholds. Each algorithm has exactly one body, shared by
// the blocking and nonblocking entry points; adding one means a compiler
// and a table row — the executor, request handling and progress rules are
// untouched.
//
// Compilers take a uniform collArgs record and the commTopo they run on,
// and are compositions of the phase builders in phases.go, each written
// once over an explicit member list: tree broadcast and pre-posted tree
// reduce at one tree position (binomialOver inside a cluster, the derived
// leader tree over the leaders, twoLevelTree across both), block gather to a
// leader, per-part
// gather/scatter between a leader and its members, the pre-posted
// all-pairs exchange among leaders, the multi-leader bridge exchange with
// its hand-off and fan-out rounds, the ring reduce-scatter and ring
// allgather, and the two unpack completions. An N-level hierarchy would
// be "a commTopo per level" handed to the same builders, not another
// family of compilers.
//
// The leader level of a two-level tree is derived, not fixed. twoLevelTree
// is the one place that shapes it, for Barrier, Bcast (per segment), Reduce
// and an Allreduce that keeps the tree, fan-out and fan-in alike. Contract
// (topology.go, logGPTree, leaderTree):
//
//   - Inputs: the number of operation leaders and the backbone's LogGP
//     numbers off Hierarchy.Inter — SendUS (o: what one message keeps its
//     sender for), DeliverUS (D: from the start of a send to the message in
//     the receiver's hands), ByteUS (G: one over the trunk's capacity when
//     capped, the pipe's otherwise) — and the message size: a send occupies
//     o + b·G and lands D + b·G after it began. The cluster session fills
//     them from netsim.Params; there is nothing to set.
//   - Shape: the greedy LogGP broadcast — the informed leader that is free
//     soonest sends next. On the TCP backbone D/o is about 4, so a leader
//     injects several messages while its first is under way and the tree is
//     flatter than binomial: 64 leaders are three levels deep at 0 B, four
//     at 64 B, where the binomial tree is six.
//   - Fan-out bound: no leader sends more than ⌈log2 n⌉ messages, the
//     binomial root's count. On a capped trunk a wider root ends the tree no
//     sooner — the trunk paces the messages — but stays in the operation
//     until its end, and the next collective of a back-to-back loop queues
//     behind it.
//   - Numbering: top-down, the k-th leader informed takes relative index
//     n − k (relative to the root's cluster, so one shape serves every root).
//     Up to three leaders that is exactly binomialOver's tree and send
//     order: no tree on ≤ 3 clusters depends on the link.
//   - Limit: as b·G outgrows D − o, delivery ≈ injection and the greedy tree
//     is the binomial one (16 KiB on the capped Fast-Ethernet trunk: the
//     same six levels and the same children at the root).
//   - Allreduce: up the tree and back down is two crossings in a row, priced
//     at twice the tree's predicted completion. The alternative is one
//     all-pairs round in which every leader sends its cluster's partial to
//     every other, priced at (L−1)·(o + b·G) + D + b·G and, on a capped trunk,
//     at least L·(L−1)·b·G. allreduceTree compiles the cheaper. In the
//     exchange every leader folds the partials itself, in cluster order —
//     its own partial goes on the left of the prefix before it, which is the
//     same bits because every predefined op is commutative — so every rank
//     ends with the same bits. Two or three leaders exchange (the 2×4 X4/X6
//     machines, the triangle, X5's chain); 64 behind the capped trunk keep
//     the tree at every size.
//   - Cost: built once per (group, message size) by the first rank that
//     compiles such a collective, kept on the shared groupView, and recorded
//     as a "tree.leader" ctrl instant when tracing, the Allreduce's choice
//     and both its prices included.
//
// What stays binomial: the tree inside a cluster (binomialOver), the leader
// phase of the two-level ring Allreduce (reduce to cluster 0's leader and
// back), and everything on the one-cluster view.
//
// Forms that are the one-cluster case of a two-level compiler have no
// body of their own. The table compiles them with the two-level compiler
// on oneClusterTopo — every rank in one cluster, so the leader level is
// empty (rows marked blind):
//
//   - flat Bcast = the two-level tree broadcast: with one cluster the
//     leader tree holds the root alone and the intra-cluster tree is the
//     classic binomial tree.
//   - flat Reduce = the two-level tree reduction: the binomial tree, every
//     child's partial pre-posted in one round and folded in ascending
//     stride order, one message to the parent.
//   - flat Allreduce = the two-level Allreduce's tree shape: that reduce
//     to rank 0 and the binomial broadcast back, unsegmented. On one
//     cluster allreduceTree asks no leaderTree whether the leaders should
//     exchange (there are none), so no tree.leader instant is traced.
//   - flat Gather = leader-staged gather: the root is the only leader and
//     every member ships its block straight to it.
//   - ring Allreduce and ring ReduceScatter = their two-level ring forms
//     with the chunk gather / leader exchange / chunk scatter skipped
//     (they are vacuous with one cluster): the ring phases alone remain.
//   - 2level-seg Bcast = the 2level compiler with the backbone's pipeline
//     segment (segmentBytes) for a segment size.
//
// The other forms are distinct algorithms and stay separate bodies,
// because their schedules genuinely differ:
//
//   - flat Barrier is the dissemination algorithm: ⌈log2 n⌉ rounds in
//     which every rank sends and receives, where two-level is fan-in /
//     fan-out over the leader tree, 2·(n−1) messages in 2·⌈log2 n⌉ rounds.
//   - flat Allgather is a ring: n−1 rounds of one block each, every link
//     busy every round; the two-level form gathers to a leader and moves
//     one bundle per leader pair — on one cluster that is a gather and a
//     broadcast of the whole vector, not a ring.
//   - flat Alltoall is a pairwise rotation: n rounds, one partner each;
//     the two-level form funnels every send matrix through the leader —
//     on one cluster, every block through one rank.
//   - 2level-multi (hmulti.go) is not 2level with a one-element leader
//     set, and 2level is not its K=1 case: multi-leader Bcast walks a
//     linear chain of clusters per shard where single-leader uses the
//     derived leader tree (O(clusters) vs O(log clusters) latency on a
//     64-cluster machine), Allreduce scatters the reduction over the
//     clusters where single-leader reduces whole vectors at one root or at
//     every leader, and Allgather and
//     Alltoall feed the co-leaders directly instead of funnelling through
//     the primary.
//
// The ring and the rotation assemble their result where the two-level
// forms do (schedBuilder.landing): in the user's receive buffer for a
// dense datatype, the Alltoall's only when apart from its send buffer, so
// a dense call leases no staging and unpacks nothing.
//
// The whole layer is pinned by fingerprint_test.go: every operation ×
// forced mode × payload × root × topology shape, plus one autotuned
// session per shape, must reproduce its final virtual time, per-network
// packet and byte counts and tune table from testdata/fingerprints.txt.
//
// # Ring schedules
//
// Allreduce and ReduceScatter additionally compile to bandwidth-optimal
// ring schedules (ring reduce-scatter, optionally followed by a ring
// allgather): 2·(n−1) latency rounds, but only 2·(n−1)/n of the vector
// per link instead of the binomial tree's 2·log(n) full copies — the
// large-vector winner on any uniform fabric. On a cluster-of-clusters the
// flat ring is the *worst* choice (with interleaved placement every hop
// crosses the slow backbone), so the two-level ring forms run the rings
// inside each cluster around the same single leader exchange the tree
// forms use. Ring reductions apply op in member order around the ring and
// therefore assume a commutative op (all predefined ops are).
//
// # Routing and the gateway cost model
//
// On forwarded topologies (cluster.Topology.Forwarding, the paper's §6
// extension) rank pairs without a shared network communicate through
// multi-homed gateway nodes. Since PR 4 the paths come from a real
// routing subsystem (internal/route) instead of a hop-count BFS: every
// ordered pair gets the shortest-COST path under a model derived from
// netsim.Params — per-hop latency and overheads, size-dependent
// serialization at a reference payload, and a trunk-contention penalty
// on shared-bandwidth backbones. Three things in this package consume
// the result:
//
//   - Hierarchy.Leaders: the cluster session elects each cluster's
//     leader to minimize gateway traversals (ranks on gateway nodes win;
//     path cost breaks ties), and commTopo prefers that rank over the
//     lowest-comm-rank convention whenever it is in the communicator.
//     On a bridged 3-cluster topology this cuts the gateway hops of a
//     two-level Bcast by a third.
//   - Hierarchy.Inter: when leader exchanges are genuinely multi-hop,
//     the backbone link is recalibrated to the worst routed leader-pair
//     path (summed latency, bottleneck bandwidth and segment), so the
//     analytic thresholds and the broadcast segmentation rule reason
//     about the path a message actually takes.
//   - The devices: routes carry the path length and the bottleneck
//     pipeline segment, and ch_mad ships large multi-hop rendez-vous
//     bodies as independent per-segment messages, so a gateway re-emits
//     segment k while segment k+1 is still inbound (pipelined relay
//     instead of whole-body store-and-forward; 2.5-3.3x on balanced
//     3-gateway chains).
//
// # Routing at scale (1000+ ranks)
//
// Since the scale overhaul the planner no longer materializes all-pairs
// state. internal/route groups ranks into "blocs" — maximal sets with
// identical network signatures, interchangeable under a graph
// automorphism — and runs one quotient-graph Dijkstra per source bloc,
// lazily on first query, instead of N rank-level sweeps: on the scale
// machine (64 islands x 16 ranks = 1024 ranks behind one backbone) that
// is 128 blocs, and Plan.Path/Paths/Cost/Hops resolve hierarchically with
// unchanged signatures and bit-identical results (pinned against the
// dense reference planner by a property test). Everything downstream is
// equally lazy: devices resolve rails through a per-destination resolver
// and cache them (a re-plan is an O(1) cache flush, not an O(N²)
// reinstall), link classes are memoized per bloc pair, leader election
// scores one candidate per bloc, and the autotuner keeps probing one
// representative pair per device class — so a session only ever pays for
// the pairs that actually communicate. The growth is machine-checked on the
// host clock: BenchmarkScaleMachine samples the planner at 256 and 1024
// ranks into BENCH_scale.json and cmd/benchcheck fails CI if the cost ratio
// approaches quadratic or the 1024-rank scale experiment exceeds its
// wall-clock ceiling. The scale experiment's simulated times are rows of the
// claims ledger (internal/experiments/claims_test.go) instead.
//
// # Adaptive re-routing, striping, and admission control
//
// Since the multi-path refactor the route->relay->collective stack is a
// closed loop rather than a static plan:
//
//   - Multi-path planning: the planner computes up to K edge-disjoint
//     paths per pair (route.Options.MaxPaths; 2 by default on forwarded
//     topologies), and the cluster wiring installs them as rails on the
//     device. Large multi-hop rendez-vous bodies are striped across the
//     rails — segments are dealt to the rail with the earliest predicted
//     finish (pipeline fill + segments x bottleneck-hop cost, so a
//     one-bridge rail and a two-bridge detour split near-evenly once the
//     pipelines are full), tagged with their rail (header PathID) so
//     relaying gateways keep each stripe on the matching, non-backtracking
//     rail, and reassembled by offset at the receiver. On the bridged
//     triangle this roughly doubles forwarded bandwidth (>= 1.5x at
//     64 KiB, ~2x at 1 MiB — a row of the claims ledger).
//   - Adaptive re-routing: cluster.Session.Replan feeds every gateway's
//     relay-queue high-water mark (Session.RelayStats' source counters)
//     back into the edge costs as a congestion term and recomputes the
//     plan, so a hot bridge prices itself out and traffic shifts to the
//     parallel rails. Replanning happens only when the application calls
//     it at a quiescent collective boundary — schedules stay
//     deterministic within a run. Routes update immediately (routing is
//     per message); leaders are re-elected from the new plan — in place,
//     in the Hierarchy the ranks share — and Process.RefreshHierarchy
//     drops the world communicator's cached view and the shared one on
//     the Hierarchy, so the next collective compiles against them.
//   - Gateway admission control: each relay's store-and-forward queue is
//     bounded by a credit window (core.Device.RelayWindow). cluster.Build
//     sets it on every device before the polling threads start:
//     Topology.RelayWindow when pinned, else DefaultRelayWindow, else —
//     on Autotune sessions — the largest bandwidth-delay product among
//     the backbones the device's node fronts (analytic, recomputed at
//     every Build, so the tune cache carries no row for it). A body
//     packet must hold a credit
//     while stored; at a full gateway the polling thread parks until one
//     frees (backpressuring the inbound channel), and a relayed
//     rendez-vous REQUEST is refused with a busy nack — the sender backs
//     off exponentially and retries, so a transfer is only admitted when
//     the gateway can hold it. A full gateway never drops; the only
//     drops are routing holes, counted in stats.RelayTable.
//
// # Bandwidth aggregation: multi-leader collectives
//
// A single elected leader per cluster serializes the entire inter-cluster
// phase of a two-level collective through one gateway, leaving every
// other bridge the cluster fronts idle. The multi-leader forms
// (hmulti.go, CollHierMulti, tuning-table name "2level-multi") remove
// that funnel:
//
//   - Leader sets: cluster election widens each cluster's leader into a
//     set with one member per distinct gateway network the cluster
//     fronts (Hierarchy.Leaders, primary leader first, each Leader with
//     the gateway it fronts). On the bridged triangle every island
//     borders two bridges, so every set has two gateway-diverse members.
//   - One relay table: for every ordered cluster pair, the co-leader
//     couples that carry its traffic — the pairs of co-leaders fronting a
//     bridge the two clusters share, so a crossing is a single hop between
//     the two ends of that bridge and no device relays it; where the
//     clusters share none, the k-th co-leaders of both, routed by the
//     fabric. It follows from the leader sets alone and is built once per
//     group, with the rest of the dense view (groupView.relays).
//   - One pipelined bridge exchange (phases.go: slabbing, pipeline,
//     bridgeStage, handOffStage, fanOutStages). All ordered pairs cross at
//     once, the traffic of a pair striped over its couples, every inbound
//     chunk pre-posted beside the outbound sends so both directions of a
//     bridge are busy together. A form is a list of stages — hand the data
//     to the couples, cross, hand on or fold what landed, fan out — and the
//     exchange is cut into slabs that run through them skewed by a round
//     each: round t carries slab t-i of stage i, bridge chunks as plain
//     sends and every intra-cluster send on the round's second lane, so a
//     co-leader feeds slab t+1 and drains slab t-1 on its fast fabric while
//     slab t crosses. A couple's chunk is the largest that stays eager on
//     the bridge it crosses, capped by the bridge's pipeline segment (the
//     least of every network's for a couple the fabric routes), and a slab
//     is about √(chunks of the longest pair) chunks per couple — the same
//     cut on every rank, because it follows from the Hierarchy and the
//     class thresholds every rank holds; one slab is the unpipelined form,
//     the stages one round after the other. Allreduce is a
//     cluster-level reduce-scatter and allgather in one pipeline of ten or
//     so stages: the binomial reduce to the primary (a level a stage), the
//     hand-off of piece j to the couples facing cluster j, the crossing, the
//     hand-in and the fold of the partials at j's primary, the hand-off of
//     the finished piece, the second crossing, the fan-out — slab s of the
//     finished pieces crosses back while the partials of slab s+3 still
//     cross out, and a directed bridge carries 2/C of the vector in each
//     direction instead of the whole of it through relays. Its slab is a run
//     of the vector cut into one piece per cluster (cluster j finishes every
//     slab's j-th part; one slab is the vector and its pieces the thirds of
//     it), so what a slab needs reduced is one message a child, not one per
//     piece — a rendez-vous hand-shake is the dearest thing a slab costs the
//     host. A vector whose pieces are shorter than the backbone's
//     bandwidth-delay product (Hierarchy.Inter) crosses once, whole, and is
//     folded everywhere.
//     Allgather ships each cluster's bundle once over each of its bridges
//     and fans the slabs out as they land. Alltoall gathers each directed
//     bundle's slabs on the pair's couples, crosses, and scatters them block
//     by block. What lands fans out from the rank it landed on, all pieces'
//     binomial trees in lockstep, a level a stage (fanOutStages).
//   - Bcast has one source and pipelines eager-sized segments down per-shard
//     chains of the same couples instead. A path rank takes a segment and
//     passes it on, a round each; what its cluster's other members need it
//     hands them on the second lane of the forwarding round (where they are
//     eager — see the lane's contract above — and where the holder feeds the
//     member no other shard's path: the rest goes after the cycles, as all of
//     it used to). The last rank of a path is the holder of its cluster and
//     a forwarder of some other shard over the same bridge; it takes segment
//     s-1 and hands on segment s-2 in cycle s, a segment behind its own
//     sends. Unskewed, each direction of that bridge waits for the other
//     every segment: 130 ms for 1 MiB instead of 60.
//   - Order: every rank emits the same global sequence of rounds and walks
//     stages, clusters, couples and pieces ascending inside each; receives
//     are posted before the sends of their round, a send and its receive sit
//     in the round of the same index, and what a round sends it took in an
//     earlier one. That is the whole deadlock argument (induction over the
//     round index: a blocked send waits for a rank that only has to reach the
//     same round) and the whole FIFO argument (one tag per schedule, both
//     ends of a pair enumerate alike, one lane per pair per round) —
//     hmulti.go spells it out, slabs included.
//   - Eager chunks on the bridge: a stripe crosses as chunks sized from
//     the bridge (§4.2.2: each network carries messages sized for it), not
//     as one rendez-vous body. Rails are the reason. A direct pair has two
//     installed rails on a bridged topology — its own bridge and the
//     detour over the other two — and ch_mad stripes a rendez-vous body
//     over both, which doubles a forwarded pair's bandwidth when the
//     machine is otherwise idle and is pure extra load when the collective
//     already fills every bridge: a 1 MiB Allreduce on the triangle took
//     148 ms and moved 2.1 MB per bridge as whole pieces, 114 ms and 1.4 MB
//     as chunks (81 ms with the rounds overlapped and TCP-sized chunks).
//
// The aggregate effect on the bridged triangle at 1 MiB, from a synchronised
// start to the last rank's return: Bcast engages all three bridges at half
// the bytes each (1.9x over the single-leader form), Allreduce and Allgather
// load the three bridges equally with two thirds of what the funneled forms
// put on the leader's (2.9x and 3.1x), and Alltoall balances the three
// bridges exactly where the funneled form tripled the load on the leader's
// bridge (2.2x). The four take 1.30, 1.35, 1.37 and 1.25 times what the
// bridges need for their bytes; README's multi-leader section has the
// breakdown. The autotuner treats "2level-multi" as one more candidate and
// the crossover is measured, not assumed: on the triangle it takes every
// bracket of Allreduce, Allgather and Alltoall and the large-payload bracket
// of Bcast, whose latency brackets go to the segmented single-leader form
// (the multileader experiment and the ledger's x9.* rows hold the
// selected-not-forced speedups).
//
// # The per-link device mux
//
// A session's links are not interchangeable: the paper's headline
// configuration runs shared memory within a node, a SAN within each
// cluster and TCP between clusters, all at once. The cluster wiring
// classifies every ordered rank pair into a device class — "self"
// (intra-process, chself), "smp" (intra-node, smp_plug), "san"
// (intra-cluster SAN such as SCI or Myrinet/BIP) or "wan" (a commodity
// backbone) — lazily: cluster.Session.LinkClassOf resolves a pair against
// the session's current plan on the first query and memoizes it per
// routing-bloc pair; no rank holds a copy.
// Three layers consume it:
//
//   - Routing: internal/route's edge costs are device-aware — an eager
//     payload pays the class's intermediary-copy cost, a rendez-vous
//     payload its handshake round-trips — so the planner prefers the
//     transport a payload actually runs fastest on, not a uniform
//     reference curve.
//   - The devices: ch_mad routes carry their path's device class and
//     smallest native switch point, and Device.SwitchPointTo resolves
//     the eager->rendez-vous threshold per link (measured per-class
//     override, then the path's native threshold, then the historical
//     single elected value) instead of §4.2.2's one device-wide
//     election. cluster.Topology.Uniform restores the historical
//     single-protocol wiring as an ablation.
//   - Tuning: the MPI_Init autotuner probes one representative rank
//     pair per class (ClassProbe) with eager- and rendez-vous-forced
//     ping-pongs and broadcasts the measured per-class thresholds with
//     the crossover table. They land in the rank's one class table
//     (ClassSwitchPoints), which its ch_mad device reads too
//     (core.Device.ClassSwitch), and appear as "SwitchPoint" rows of
//     TuneSnapshot.
//
// # The MPI_Init autotuner
//
// Process.Autotune (or cluster.Topology.Autotune) replaces the analytic
// selection thresholds with measured ones: at init, every candidate
// algorithm of every tunable operation is compiled and executed on the
// live topology over a small payload sweep — so the timings include rank
// placement, elected switch points and, when netsim models it, backbone
// trunk contention (netsim.Params.NetworkBandwidth). Rank 0 keeps every
// reading, picks the fastest candidate per size and places each crossover
// where the two winners' readings cross, each candidate's time a straight
// line between the adjacent sweep sizes — the α–β crossing by which §4.2.2
// argues the eager/rendez-vous switch point (the per-class switch-point
// probe itself still elects the geometric midpoint of its bracket). It
// broadcasts the (operation → size bracket → algorithm) table as integer
// triples; every rank installs the identical triples straight into
// its table and class thresholds, refusing a triple that names no known
// operation, algorithm or class or carries a non-positive bound, so CollAuto
// dispatch stays agreed everywhere. The sweep is deterministic in the
// topology (virtual time has no noise), and it is the only install path:
// nothing persists a table across sessions, so an experiment that wants
// several measurements on one tuned machine makes them inside one session.
// Communicators resolve the table once, at their first collective;
// Process.TuneSnapshot exports it for reports.
//
// # The Icoll API
//
// The nonblocking collectives mirror MPI-3:
//
//	req, err := comm.Iallreduce(send, recv, count, dt, op)
//	... overlapped computation ...
//	err = req.Wait()        // or: done, err := req.Test()
//
// Ibarrier, Ibcast, Ireduce, Iallreduce, Igather, Iallgather and
// Ialltoall return a *CollRequest. The overlapped computation is the
// application's marcel.Compute, in one call or many: every charge of the
// engine (a send's overhead, a copy, a reduction) that queues behind it cuts
// it after at most one marcel.Quantum, and it resumes once the engine has
// stopped asking for the CPU or after another Quantum. Beside a compute as
// long as the blocking call, X4's two-level Allreduce hides 87–94 % of it at
// 64K–256K and the Alltoall 91–92 % (the x4.*-ovl-hidden ledger rows); what
// stays exposed is the engine's own CPU time, which shares the one CPU with
// the computation, and the quanta its charges wait behind it. Output
// buffers are defined only after
// Wait/Test reports completion; input buffers must stay untouched until
// then. All members must issue collectives on a communicator in the same
// order (the MPI rule); the engine relies on it to number schedules
// identically across ranks.
//
// Blocking Barrier/Bcast/Reduce/Allreduce/Gather/Allgather/Alltoall/
// ReduceScatter are compile-then-Wait wrappers around their I-twins: every
// collective is a schedule, and there is no second collective mechanism.
//
// # Determinism rules
//
// The simulator's core guarantee is that a run is a pure function of its
// inputs: same topology, same program, same seeds — bit-identical stats
// tables, virtual timestamps and routes, every time. That guarantee is
// what makes experiment output diffable in CI and rare protocol bugs
// reproducible at will.
// Simulation code (everything under internal/ except the linter itself)
// therefore follows five rules, machine-checked by `go run ./cmd/madlint
// ./...` (cmd/madlint, analyzers in internal/lint):
//
//   - No wall clock. time.Now/Sleep/After read or wait on host time;
//     simulation code uses vtime.Scheduler's virtual clock exclusively.
//   - No global math/rand. Anything random draws from an explicitly
//     seeded generator (netsim.PRNG) owned by the component, so seeds
//     travel with topologies, not with process start order.
//   - No preemptive concurrency. Raw `go` statements, sync.Mutex,
//     sync.WaitGroup and native channels are forbidden everywhere,
//     internal/vtime included (its tasks are coroutines resumed one at
//     a time, not goroutines): all parallelism is cooperative tasks
//     under the scheduler, which is what makes interleavings replayable.
//     One exemption, on two lines of netsim.Copy: a payload copy of 2 MiB
//     or more moves its second half on a helper goroutine, joined with a
//     sync.WaitGroup before Copy returns. It cannot reach virtual time:
//     the helper touches only the two byte ranges, the bytes are the ones
//     the builtin copy writes, and the task that called Copy continues
//     only after the last of them has landed, inside the same scheduler
//     step — no clock, queue, event or trace sees it, only the host time.
//   - No map-order effects. Iterating a Go map is randomized per run;
//     loop bodies must not push, fire, send, spawn or print per entry,
//     and slices collected from a map must be sorted before use
//     (iterate sorted keys, or append then sort.*).
//   - No unrounded float product in a sum. A CPU with fused multiply-add
//     (arm64, ppc64le, s390x, riscv64, loong64) may round x*y + z once
//     where amd64 rounds twice; an explicit conversion, float64(x*y) + z,
//     rounds the product on every GOARCH.
//
// Two further madlint analyzers guard protocol structure: pktswitch
// proves every switch over an enum-shaped discriminator (core.PktType,
// adi control kinds, the madeleine/chp4 wire kinds, the collective
// algorithm/kind tables here) covers every constant or carries an
// explicit default; vtimectx proves no scheduler-context callback
// (Scheduler.At/After timers, Event.OnFire subscribers, netsim
// Endpoint.OnDeliver hooks) can reach a vtime-blocking primitive, which
// would panic "called outside a running task" at depth. A justified
// exception is silenced in place with `//madlint:ignore <analyzer>
// <reason>`; out-of-tree simulation files opt in with
// `//madlint:simulation`. A fourth, deadexport, holds the API to what the
// module calls: an exported identifier of a non-main package that no
// non-test file references is deleted, moved into the tests that use it,
// or kept with a `//madlint:ignore deadexport <reason>` naming its caller
// (bench/, a test of another package, a ROADMAP item by its title: items are
// renumbered).
//
// The runtime counterpart is the Finalize-time invariant audit: after a
// clean run the cluster session calls Process.AuditDevices, and every
// device implementing adi.Auditor (ch_mad: core.Device.AuditInvariants)
// must be back at rest — relay credit window full, no rendez-vous syncs
// or stripe reassemblies open, no relay bytes without forwards. The vtime
// scheduler's deadlock detector completes the
// picture: when no task is runnable and no event pending, Run returns a
// structured vtime.DeadlockError naming every task and what it waits on;
// a run past its virtual deadline returns the same dump in a
// vtime.DeadlineError, and a panic inside a simulated thread surfaces
// from Run as a vtime.TaskPanic naming the thread and the virtual time.
//
// # Observability
//
// The transport stack is instrumented end to end by internal/trace: a
// virtual-time event tracer, an always-on metrics registry, and a
// bounded flight-recorder ring. Tracing is off by default and costs one
// nil-check branch per hot path (measured by BenchmarkNilTracer;
// internal/experiments' all.txt pins every simulated time of the untraced
// suite byte for byte, and TestTracingLeavesOutputIdentical holds a traced
// run to the same bytes). Attach a tracer per topology
// (cluster.Topology.Trace) or process-wide (cluster.SetDefaultTracer —
// the `cmd/experiments -trace out.json` path).
//
// Event taxonomy, by trace.Kind and name:
//
//   - pkt: "eager.send"/"eager.recv" — short-protocol message
//     lifecycle, one span per send with src/dst/bytes/class.
//   - rndv: "rndv.req", "rndv.ok", "rndv.ack" — the rendez-vous
//     handshake; "rndv.body"/"rndv.land" — one body segment sent and
//     landed (an uncut body is one), tagged with its rail (header
//     PathID), hop budget and byte offset; "rndv.nack" — a busy-refused
//     request.
//   - relay: "relay.hop" — one gateway forward (span covers the parked
//     store-and-forward time), with rail/hop tags; "relay.depth" — the
//     queue-occupancy counter track; "relay.drop".
//   - credit: "relay.credit.wait" — a body parked for an admission
//     credit; "relay.busy" — a refused rendez-vous request.
//   - sched: "sched.<op>" and "sched.round" — the collective progress
//     engine's schedule execution, one span per round with the ranks it
//     talks to ("s5,r0" = send to world rank 5, receive from 0);
//     "sched.submit" — a collective starting: class "caller:<form>" when
//     it runs on its caller, "queued:<form>" when it queues for the engine
//     thread, val the queue depth (0 on the caller).
//   - net: "trunk.wait" — a packet queued behind other pipes' traffic
//     for a shared backbone trunk; "trunk.occ" — trunk occupancy.
//   - ctrl: "replan" — a Session.Replan, with the number of congested
//     gateways that fed the new plan; "tree.leader" — the leader level of
//     the two-level trees took a shape: message size (bytes), leader count
//     (seq), predicted completion in ns (val) and, in class, the LogGP
//     inputs with the depth and widest fan-out that came out — once per
//     size and communicator group, on the track of the rank that built it;
//     "tune.cross" — the MPI_Init autotuner placed a bracket bound: the bound
//     (bytes) and, in class, the operation, the sweep sizes around it and
//     both algorithms' readings at them — once per bound, on rank 0's track.
//
// Reading traces: trace.Tracer.WriteChrome emits Chrome trace-event
// JSON with timestamps in virtual microseconds — load it in
// ui.perfetto.dev (or chrome://tracing). Each session is a process;
// each rank, each network and the session-control line are tracks
// within it. The registry (trace.Registry) aggregates counters per
// device class and per gateway (eager/rndv/relay bytes and messages,
// deferred bodies, busy nacks, queue high-water, trunk waits) and
// always runs — cluster.Session.RelayStats and the RelayTable
// trunk-wait column read it with tracing off.
//
// The flight recorder closes the loop with the failure paths: a traced
// session points vtime.Scheduler.OnDeadlock at the tracer's ring, so a
// DeadlockError report ends with the last events before the hang, and
// core.Device.AuditInvariants appends the device's trace tail to a
// failed audit — the exchange that leaked the state, not just the leak.
//
// # Migration notes
//
// Callers of the former internal algorithm helpers (barrierFlat,
// bcastHier, reduceFlat, allgatherHier, ...) now use the public API plus
// Process.SetCollMode(CollFlat/CollHier) to pin an algorithm family; the
// helpers were replaced by the schedule compilers bound in collForms,
// with identical message patterns. WaitAll returns one *Status per request
// (nil for sends) alongside the first error.
package mpi
