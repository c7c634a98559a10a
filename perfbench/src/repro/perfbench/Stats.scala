package repro.perfbench

/** The benchmark's own arithmetic: reference distances, order statistics
  * and the multi-stage response-time model. Checked by [[SelfCheck]].
  */
object RefDijkstra {

  val Unreachable: Long = Long.MaxValue

  /** Single-source distances over `net.w`, with a binary heap of
    * (distance, vertex) entries and lazy deletion.
    */
  def sssp(net: Network, s: Int): Array[Long] = {
    val dist = Array.fill(net.n)(Unreachable)
    var hk = new Array[Long](64); var hv = new Array[Int](64); var size = 0
    def push(k: Long, v: Int): Unit = {
      if (size == hk.length) {
        hk = java.util.Arrays.copyOf(hk, size * 2); hv = java.util.Arrays.copyOf(hv, size * 2)
      }
      var i = size; size += 1
      while (i > 0 && hk((i - 1) / 2) > k) {
        val p = (i - 1) / 2; hk(i) = hk(p); hv(i) = hv(p); i = p
      }
      hk(i) = k; hv(i) = v
    }
    def popInto(): Unit = { // moves the last entry down from the root
      size -= 1
      val k = hk(size); val v = hv(size)
      var i = 0; var done = false
      while (!done) {
        var c = 2 * i + 1
        if (c >= size) done = true
        else {
          if (c + 1 < size && hk(c + 1) < hk(c)) c += 1
          if (hk(c) < k) { hk(i) = hk(c); hv(i) = hv(c); i = c } else done = true
        }
      }
      hk(i) = k; hv(i) = v
    }
    dist(s) = 0; push(0L, s)
    while (size > 0) {
      val d = hk(0); val u = hv(0)
      popInto()
      if (d == dist(u)) {
        var a = net.off(u)
        while (a < net.off(u + 1)) {
          val x = net.arcTo(a); val nd = d + net.w(net.arcEdge(a))
          if (nd < dist(x)) { dist(x) = nd; push(nd, x) }
          a += 1
        }
      }
    }
    dist
  }
}

object Stats {

  def median(xs: Iterable[Double]): Double = {
    val a = xs.toArray.sorted
    require(a.nonEmpty, "median of no samples")
    if (a.length % 2 == 1) a(a.length / 2) else (a(a.length / 2 - 1) + a(a.length / 2)) / 2
  }

  def mean(xs: Array[Double]): Double = xs.sum / xs.length

  /** Nearest-rank q-percentile, or None unless at least `minBeyond` samples
    * lie above the reported rank (a tail needs samples in it).
    */
  def percentile(xs: Array[Double], q: Double, minBeyond: Int = 10): Option[Double] = {
    val rank = math.max(1, math.ceil(q * xs.length - 1e-9).toInt)
    if (xs.length - rank < minBeyond) None
    else Some(xs.sorted.apply(rank - 1))
  }

  /** Mean response time (s) of a query arriving at a uniformly random moment
    * of an update interval `deltaT`, at vanishing load. Stage j opens at
    * `opens(j)` s after the batch arrives and answers in `means(j)` s; a
    * query serves on the newest open stage, and one arriving before the
    * first stage opens waits for it and is then served by it:
    * (o₁²/2 + o₁·q̄₁ + Σ_j (o_{j+1} − o_j)·q̄_j) / δt with o_{J+1} = δt.
    * Opens beyond δt are clamped to δt.
    */
  def windowResponse(opens: Array[Double], means: Array[Double], deltaT: Double): Double = {
    require(opens.length == means.length && opens.nonEmpty)
    val o = opens.map(x => math.min(math.max(x, 0.0), deltaT)) :+ deltaT
    var sum = o(0) * o(0) / 2 + o(0) * means(0)
    for (j <- means.indices) sum += (o(j + 1) - o(j)) * means(j)
    sum / deltaT
  }
}
