package repro.perfbench

import java.util.SplittableRandom
import repro.graph.{GridGen, RoadGraph}

/** The benchmark's own road network: a corridor grid plus the
  * benchmark's private copy of the edge weights. The batch generator
  * mutates `w`; the reference Dijkstra reads it. The program under test
  * only ever receives the generated edges and batches.
  */
final class Network(val n: Int, val eu: Array[Int], val ev: Array[Int], val w0: Array[Int],
                    val xs: Array[Double], val ys: Array[Double]) {
  val m: Int = eu.length
  /** Current weights, starting from the pristine ones. */
  val w: Array[Int] = w0.clone()

  /** CSR adjacency: the arcs of v are `off(v) until off(v+1)`; arc a leads
    * to `arcTo(a)` over edge `arcEdge(a)`.
    */
  val off: Array[Int] = new Array[Int](n + 1)
  val arcTo: Array[Int] = new Array[Int](2 * m)
  val arcEdge: Array[Int] = new Array[Int](2 * m)
  locally {
    for (e <- 0 until m) { off(eu(e) + 1) += 1; off(ev(e) + 1) += 1 }
    for (v <- 0 until n) off(v + 1) += off(v)
    val pos = off.clone()
    for (e <- 0 until m) {
      arcTo(pos(eu(e))) = ev(e); arcEdge(pos(eu(e))) = e; pos(eu(e)) += 1
      arcTo(pos(ev(e))) = eu(e); arcEdge(pos(ev(e))) = e; pos(ev(e)) += 1
    }
  }

  /** The pristine network as the program's graph type. */
  def roadGraph(): RoadGraph =
    RoadGraph.fromEdges(n, Array.tabulate(m)(e => (eu(e), ev(e), w0(e))).toSeq, xs, ys)

  /** Same topology and pristine weights, with its own weight copy. */
  def pristine(): Network = new Network(n, eu, ev, w0, xs, ys)
}

object Network {
  /** Edge weights are uniform in [1, MaxWeight], as in `GridGen`. */
  val MaxWeight = 100

  /** The `width` × `length` corridor that `GridGen.grid` makes from
    * `shapeSeed` (its lattice holes and coordinates), with the weights
    * drawn anew from `weightSeed`.
    */
  def grid(width: Int, length: Int, shapeSeed: Long, weightSeed: Long): Network = {
    val g = GridGen.grid(width, length, shapeSeed)
    val edges = g.undirectedEdges
    val rnd = new SplittableRandom(weightSeed)
    new Network(g.n, edges.map(_._1).toArray, edges.map(_._2).toArray,
      Array.fill(edges.size)(1 + rnd.nextInt(MaxWeight)), g.xs, g.ys)
  }
}

/** Seeded update batches in the paper's style (§VII): `size` distinct
  * random edges, each halved (min 1) or doubled. A weight stays within
  * [w0/4, 4·w0] of its pristine value (the direction flips at a limit), so
  * a long run never drifts towards the program's distance limit.
  */
final class BatchStream(net: Network, size: Int, seed: Long) {
  private val rnd = new SplittableRandom(seed)
  private val ids = Array.range(0, net.m)

  /** The next batch as (u, v, new weight); also applied to `net.w`. */
  def next(): IndexedSeq[(Int, Int, Int)] = {
    val out = new Array[(Int, Int, Int)](size)
    var i = 0
    while (i < size) {
      val j = i + rnd.nextInt(net.m - i)
      val e = ids(j); ids(j) = ids(i); ids(i) = e
      val cur = net.w(e)
      val halve = math.max(1, cur / 2)
      var nw = if (rnd.nextBoolean()) halve else cur * 2
      if (nw > 4 * net.w0(e)) nw = halve
      else if (nw < net.w0(e) / 4) nw = cur * 2
      net.w(e) = nw
      out(i) = (net.eu(e), net.ev(e), nw)
      i += 1
    }
    out.toIndexedSeq
  }
}

/** `sources.length` × `perSource` query pairs in a shuffled order; pair i is
  * (`sources(si(i))`, `t(i)`), so one Dijkstra per source answers all.
  */
final class PairSet(val sources: Array[Int], val si: Array[Int], val t: Array[Int]) {
  def size: Int = t.length
  def s(i: Int): Int = sources(si(i))
}

object PairSet {
  def random(n: Int, nSources: Int, perSource: Int, seed: Long): PairSet = {
    val rnd = new SplittableRandom(seed)
    val sources = Array.fill(nSources)(rnd.nextInt(n))
    val size = nSources * perSource
    val si = Array.tabulate(size)(_ / perSource)
    val t = Array.fill(size)(rnd.nextInt(n))
    for (i <- size - 1 to 1 by -1) {
      val j = rnd.nextInt(i + 1)
      val a = si(i); si(i) = si(j); si(j) = a
      val b = t(i); t(i) = t(j); t(j) = b
    }
    new PairSet(sources, si, t)
  }
}
