package repro.perfbench

import java.util.SplittableRandom
import repro.baseline.{MHLSolution, Solution}
import repro.core.h2h.{CHQuery, H2HIndex, UpwardGraph}
import repro.core.pmhl.PMHL
import repro.core.postmhl.PostMHL
import repro.core.sp.BiDijkstra
import repro.core.td.{MDE, ShortcutUpdater}
import repro.partition.{SpatialPartitioner, TDPartitioner}
import repro.throughput.{QueueSim, StageProfile}
import scala.collection.mutable.ArrayBuffer

/** What one batch left behind: stage open times (s after arrival), the
  * per-query seconds of every stage on the batch's pair sample, and the
  * final stage's per-query seconds on the fixed pair set.
  */
final case class Round(opens: Array[Double], stageLat: Array[Array[Double]], finalLat: Array[Double])

/** One run of one workload: JIT warm-up, repeated set-up, then update
  * batches until `seconds` have passed, every released stage timed and
  * checked after every batch. With `trace`, spans are recorded and the
  * layers are also called one by one on the workload's own inputs.
  */
final class Bench(wl: Workload, seed: Long, seconds: Int, trace: Boolean) {
  import Bench._

  val tr = new Tracer(trace)
  val chk = new Checker
  private val host = new HostRecord

  private def salt(x: Long): Long = new SplittableRandom(seed * 0x9e3779b97f4a7c15L + x).nextLong()

  private def references(net: Network, ps: PairSet): Array[Array[Long]] =
    tr.span("reference") { ps.sources.map(RefDijkstra.sssp(net, _)) }

  /** Times `q` on every pair, checks each answer; returns per-query seconds. */
  private def pass(label: String, q: (Int, Int) => Int, ps: PairSet,
                   ref: Array[Array[Long]]): Array[Double] = tr.span(label) {
    val out = new Array[Double](ps.size)
    var i = 0
    while (i < ps.size) {
      val s = ps.s(i); val t = ps.t(i)
      val t0 = System.nanoTime()
      val d = q(s, t)
      out(i) = (System.nanoTime() - t0) / 1e9
      chk.dist(d, ref(ps.si(i))(t), s"$label d($s,$t)")
      i += 1
    }
    out
  }

  private def sample(net: Network, b: Int): (PairSet, Array[Array[Long]]) = {
    val ps = PairSet.random(net.n, 8, 8, salt(1000 + b))
    (ps, references(net, ps))
  }

  /** One batch through `sol`, with every check the benchmark makes. */
  private def round(sol: Solution, net: Network, stream: BatchStream, fixed: PairSet, b: Int): Round = {
    tr.batch = b
    val batch = stream.next()
    val stages = tr.span("update") { sol.applyBatch(batch) }
    val opens = stages.map(_.availableFrom).toArray
    chk(stages.size == wl.stageCount, s"${wl.index} released ${stages.size} stages")
    chk(opens.indices.drop(1).forall(j => opens(j - 1) <= opens(j)),
      s"stage opens ${opens.mkString(", ")} decrease")
    val (ps, ref) = sample(net, b)
    val stageLat = stages.zipWithIndex.map { case (st, j) =>
      ps.sources.take(2).foreach(v => chk(st.query(v, v) == 0, s"${st.label} d($v,$v)"))
      tr.value(s"open.q${j + 1}", opens(j))
      val lat = pass(s"q${j + 1}", st.query, ps, ref)
      tr.value(s"mean.q${j + 1}", Stats.mean(lat))
      lat
    }.toArray
    val last = stages.last.query
    val finalLat = pass("final", last, fixed, references(net, fixed))
    for (i <- 0 until 32) {
      val s = fixed.s(i); val t = fixed.t(i)
      chk(last(s, t) == last(t, s), s"final stage d($s,$t) != d($t,$s)")
    }
    Round(opens, stageLat, finalLat)
  }

  /** Runs the workload; returns the result object. */
  def run(): Seq[(String, Any)] = {
    tr.span("warmup") {
      val small = Network.grid(wl.width, wl.length / 4, wl.shapeSeed, salt(1))
      wl.build(small.roadGraph())
      val sol = wl.build(small.roadGraph())
      val stream = new BatchStream(small, wl.updateVolume(small.n), salt(2))
      val fixed = PairSet.random(small.n, 20, 50, salt(3))
      for (_ <- 0 until WarmUpBatches) {
        round(sol, small, stream, fixed, -1)
        val ref = references(small, fixed)
        for (_ <- 0 until WarmUpPasses) pass("final", sol.bestQuery, fixed, ref)
      }
    }

    val net = Network.grid(wl.width, wl.length, wl.shapeSeed, salt(4))
    val g = net.roadGraph()
    val fixed = PairSet.random(net.n, 40, 50, salt(5))

    // The first full-size build still runs partly in the interpreter, so it
    // is not measured.
    var sol: Solution = tr.span("warmup") { wl.build(g) }
    val entries0 = sol.indexEntries
    val setup = new Array[Double](SetupRounds)
    val heap = new Array[Double](SetupRounds)
    val entries = new Array[Long](SetupRounds)
    for (r <- 0 until SetupRounds) {
      sol = null
      val before = usedHeapAfterGc()
      val t0 = System.nanoTime()
      sol = tr.span("setup") { wl.build(g) }
      setup(r) = (System.nanoTime() - t0) / 1e9
      heap(r) = (usedHeapAfterGc() - before) / 1e6
      entries(r) = sol.indexEntries
    }
    chk(entries.forall(_ == entries0), s"index entries differ between builds: $entries0, ${entries.mkString(", ")}")

    val stream = new BatchStream(net, wl.updateVolume(net.n), salt(6))
    val rounds = ArrayBuffer[Round]()
    val deadline = System.nanoTime() + seconds * 1000000000L
    var b = 0
    while (b < WarmBatches + MinMeasured || System.nanoTime() < deadline) {
      val r = round(sol, net, stream, fixed, b)
      if (b >= WarmBatches) rounds += r
      b += 1
    }
    tr.batch = -1

    val updateS = Stats.median(rounds.map(_.opens.last))
    val metrics: Seq[(String, Double)] =
      if (!trace) {
        val finalLat = rounds.flatMap(_.finalLat).toArray
        Seq(
          "setup_s" -> Stats.median(setup),
          "heap_mb" -> Stats.median(heap),
          "index_entries" -> entries(0).toDouble,
          "update_s" -> updateS,
          "index_release_s" -> Stats.median(rounds.map(_.opens(1))),
          "query_p50_us" -> Stats.percentile(finalLat, 0.5).get * 1e6,
          "query_p99_us" -> Stats.percentile(finalLat, 0.99).get * 1e6,
        )
      } else {
        val opens = Array.tabulate(wl.stageCount)(j => Stats.median(rounds.map(_.opens(j))))
        val samples = Array.tabulate(wl.stageCount)(j => rounds.flatMap(_.stageLat(j)).toArray)
        val lambdaQ = tr.span("throughput.queue_sim") {
          QueueSim.maxThroughput(opens.indices.map(j => StageProfile(opens(j), samples(j), s"q${j + 1}")),
            Workload.DeltaT, wl.rqStar)
        }
        val fromRun = Seq(
          "window_response_us" -> Stats.windowResponse(opens, samples.map(Stats.mean), Workload.DeltaT) * 1e6,
          "throughput.lambda_q" -> lambdaQ,
          "trace.update_s" -> updateS,
        )
        layers(net, fixed) ++ fromRun ++ Seq("trace.spans" -> tr.spanCount.toDouble) ++ host.snapshot()
      }
    val units = (EndToEnd ++ PerLayer).toMap
    Seq(
      "correct" -> (chk.failed == 0),
      "attempted" -> chk.attempted,
      "failed" -> chk.failed,
      "metrics" -> metrics.map { case (k, v) => k -> Seq("value" -> v, "unit" -> units(k)) },
    )
  }

  def noise(): Seq[(String, Double)] = host.snapshot()

  /** Calls each layer's public functions on the workload's own network and
    * batch stream, as the per-layer half of a traced run.
    */
  private def layers(net0: Network, fixed: PairSet): Seq[(String, Double)] = {
    val g = net0.roadGraph()
    def stream(): (Network, BatchStream) = {
      val net = net0.pristine()
      (net, new BatchStream(net, wl.updateVolume(net.n), salt(6)))
    }

    val a0 = host.threadAllocated()
    val td = tr.span("td.mde") { MDE.decompose(g.n, g.undirectedEdges) }
    tr.value("td.mde_alloc_mb", (host.threadAllocated() - a0) / 1e6)
    val upd = tr.span("td.updater_init") { new ShortcutUpdater(td) }
    val lab = tr.span("h2h.build") { val l = new H2HIndex(td); l.build(); td.buildLca(); l }
    val ch = new CHQuery(UpwardGraph.fromTD(td))
    val pr = tr.span("partition.spatial") { SpatialPartitioner.partition(g, wl.k) }
    val tdp = tr.span("partition.td") { TDPartitioner.partition(td, wl.tau, wl.ke) }

    locally {
      val (net, st) = stream()
      val gk = g.copyWeights()
      for (b <- 0 until LayerBatches) {
        tr.batch = b
        val batch = st.next()
        batch.foreach { case (u, v, w) => gk.setWeight(u, v, w) }
        val a1 = host.threadAllocated()
        val res = tr.span("td.sc_update") { upd.applyInputChanges(batch) }
        tr.value("td.sc_alloc_mb", (host.threadAllocated() - a1) / 1e6)
        tr.value("td.sc_affected", res.affected.length)
        val changed = tr.span("h2h.update") { lab.updateSubtrees(res.affected) }
        tr.value("h2h.labels_changed", changed.length)
        val (ps, ref) = sample(net, b)
        tr.values("sp.bidij", pass("sp.bidij", BiDijkstra.query(gk, _, _), ps, ref))
        tr.values("ch.query", pass("ch.query", ch.query, ps, ref))
        tr.values("h2h.query", pass("h2h.query", lab.query, fixed, references(net, fixed)))
      }
    }

    /** Batches through one staged index: `step` applies a batch and returns
      * cumulative stage completion times plus the query of each stage.
      */
    def staged(prefix: String, step: IndexedSeq[(Int, Int, Int)] => (Array[Double], Seq[(Int, Int) => Int])): Unit = {
      val (net, st) = stream()
      for (b <- 0 until LayerBatches) {
        tr.batch = b
        val batch = st.next()
        val (times, queries) = tr.span(s"$prefix.update") { step(batch) }
        times.indices.foreach(j => tr.value(s"$prefix.u${j + 1}_s", times(j) - (if (j == 0) 0.0 else times(j - 1))))
        val (ps, ref) = sample(net, b)
        queries.zipWithIndex.foreach { case (q, j) => tr.values(s"$prefix.q${j + 1}", pass(s"$prefix.q${j + 1}", q, ps, ref)) }
      }
    }

    val pm = tr.span("pmhl.construct") { new PMHL(g.copyWeights(), wl.k, Workload.Threads) }
    PmhlSteps.zip(tr.span("pmhl.build") { pm.build() }).foreach { case (s, x) => tr.value(s"pmhl.build_${s}_s", x) }
    tr.value("pmhl.cross_entries", pm.cross.labelEntries.toDouble)
    staged("pmhl", batch => (pm.applyUpdateBatch(batch).t,
      Seq(pm.queryBiDijkstra, pm.queryPCH, pm.queryNoBoundary, pm.queryPostBoundary, pm.queryCrossBoundary)))

    val pt = tr.span("postmhl.build") { new PostMHL(g.copyWeights(), wl.tau, wl.ke, 0.1, 2.0, Workload.Threads) }
    PostmhlSteps.zip(pt.buildTimes).foreach { case (s, x) => tr.value(s"postmhl.build_${s}_s", x) }
    staged("postmhl", batch => (pt.applyUpdateBatch(batch).t,
      Seq(pt.queryBiDijkstra, pt.queryPCH, pt.queryPost, pt.queryFull)))

    val mhl = tr.span("mhl.build") { new MHLSolution(g) }
    staged("mhl", batch => {
      val stages = mhl.applyBatch(batch)
      (stages.map(_.availableFrom).toArray, stages.map(_.query))
    })
    tr.batch = -1

    def spanS(name: String) = Stats.median(tr.seconds(name))
    def med(name: String) = Stats.median(tr.recorded(name))
    def medUs(name: String) = med(name) * 1e6
    Seq(
      "sp.bidij_p50_us" -> medUs("sp.bidij"),
      "td.mde_s" -> spanS("td.mde"),
      "td.mde_alloc_mb" -> med("td.mde_alloc_mb"),
      "td.updater_init_s" -> spanS("td.updater_init"),
      "td.slots" -> td.slotCount.toDouble,
      "td.height" -> td.height.toDouble,
      "td.max_bag" -> td.maxBagSize.toDouble,
      "td.sc_update_s" -> spanS("td.sc_update"),
      "td.sc_affected" -> med("td.sc_affected"),
      "td.sc_alloc_mb" -> med("td.sc_alloc_mb"),
      "h2h.build_s" -> spanS("h2h.build"),
      "h2h.update_s" -> spanS("h2h.update"),
      "h2h.labels_changed" -> med("h2h.labels_changed"),
      "h2h.query_p50_us" -> medUs("h2h.query"),
      "ch.query_p50_us" -> medUs("ch.query"),
      "partition.spatial_s" -> spanS("partition.spatial"),
      "partition.boundary_vertices" -> pr.boundary.count(identity).toDouble,
      "partition.td_s" -> spanS("partition.td"),
      "partition.overlay_vertices" -> tdp.overlayCount.toDouble,
      "partition.k" -> tdp.k.toDouble,
    ) ++ PmhlSteps.map(s => s"pmhl.build_${s}_s" -> med(s"pmhl.build_${s}_s")) ++
      (1 to 5).map(j => s"pmhl.u${j}_s" -> med(s"pmhl.u${j}_s")) ++
      (1 to 5).map(j => s"pmhl.q${j}_us" -> medUs(s"pmhl.q$j")) ++
      Seq("pmhl.cross_entries" -> med("pmhl.cross_entries")) ++
      PostmhlSteps.map(s => s"postmhl.build_${s}_s" -> med(s"postmhl.build_${s}_s")) ++
      (1 to 5).map(j => s"postmhl.u${j}_s" -> med(s"postmhl.u${j}_s")) ++
      (1 to 4).map(j => s"postmhl.q${j}_us" -> medUs(s"postmhl.q$j")) ++
      (1 to 3).map(j => s"mhl.u${j}_s" -> med(s"mhl.u${j}_s")) ++
      (1 to 3).map(j => s"mhl.q${j}_us" -> medUs(s"mhl.q$j"))
  }
}

object Bench {
  /** Set-ups per run; setup_s is their median. */
  val SetupRounds = 5
  /** Batches on the workload's network before measuring (JIT and caches). */
  val WarmBatches = 2
  /** Batches on the quarter-size warm-up network, and the extra final-stage
    * passes after each, so the query paths are compiled before measuring.
    */
  val WarmUpBatches = 5
  val WarmUpPasses = 4
  /** Measured batches a run makes even when `seconds` is spent. */
  val MinMeasured = 3
  /** Batches per index in the layer calls of a traced run. */
  val LayerBatches = 4

  /** The step names of `PMHL.build()` and of `PostMHL.buildTimes`, in order. */
  val PmhlSteps: Seq[String] = Seq("phase1", "overlay", "part", "post", "cross")
  val PostmhlSteps: Seq[String] = Seq("mde", "tdpart", "overlay", "post", "cross")

  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "heap_mb" -> "MB", "index_entries" -> "count", "update_s" -> "s",
    "index_release_s" -> "s", "query_p50_us" -> "us", "query_p99_us" -> "us")

  val PerLayer: Seq[(String, String)] = Seq(
    "sp.bidij_p50_us" -> "us",
    "td.mde_s" -> "s", "td.mde_alloc_mb" -> "MB", "td.updater_init_s" -> "s",
    "td.slots" -> "count", "td.height" -> "count", "td.max_bag" -> "count",
    "td.sc_update_s" -> "s", "td.sc_affected" -> "count", "td.sc_alloc_mb" -> "MB",
    "h2h.build_s" -> "s", "h2h.update_s" -> "s", "h2h.labels_changed" -> "count",
    "h2h.query_p50_us" -> "us", "ch.query_p50_us" -> "us",
    "partition.spatial_s" -> "s", "partition.boundary_vertices" -> "count",
    "partition.td_s" -> "s", "partition.overlay_vertices" -> "count", "partition.k" -> "count",
  ) ++ PmhlSteps.map(s => s"pmhl.build_${s}_s" -> "s") ++
    (1 to 5).map(j => s"pmhl.u${j}_s" -> "s") ++ (1 to 5).map(j => s"pmhl.q${j}_us" -> "us") ++
    Seq("pmhl.cross_entries" -> "count") ++
    PostmhlSteps.map(s => s"postmhl.build_${s}_s" -> "s") ++
    (1 to 5).map(j => s"postmhl.u${j}_s" -> "s") ++ (1 to 4).map(j => s"postmhl.q${j}_us" -> "us") ++
    (1 to 3).map(j => s"mhl.u${j}_s" -> "s") ++ (1 to 3).map(j => s"mhl.q${j}_us" -> "us") ++
    Seq("window_response_us" -> "us", "throughput.lambda_q" -> "1/s",
      "trace.update_s" -> "s", "trace.spans" -> "count",
      "host.steal_pct" -> "%", "process.cpu_s" -> "s", "jvm.gc_s" -> "s", "jvm.alloc_mb" -> "MB")

  def usedHeapAfterGc(): Long = {
    System.gc(); System.gc()
    val rt = Runtime.getRuntime
    rt.totalMemory - rt.freeMemory
  }
}
