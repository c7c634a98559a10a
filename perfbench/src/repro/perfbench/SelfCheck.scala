package repro.perfbench

/** Unit checks of the benchmark's own arithmetic; every run makes them
  * first and stops on a failure (`--self-check` makes only them).
  */
object SelfCheck {

  private def check(ok: Boolean, what: String): Unit =
    if (!ok) throw new AssertionError(s"self-check failed: $what")

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  def run(): Unit = {
    referenceDijkstra()
    percentiles()
    windowResponse()
  }

  /** Hand-computed distances on a 6-vertex graph (vertex 5 isolated), before
    * and after a weight change through the benchmark's own weight copy.
    */
  private def referenceDijkstra(): Unit = {
    //   0 -4- 1 -5- 3 -3- 4      0 -1- 2 -2- 1      2 -8- 3
    val net = new Network(6, Array(0, 0, 2, 1, 2, 3), Array(1, 2, 1, 3, 3, 4),
      Array(4, 1, 2, 5, 8, 3), new Array[Double](6), new Array[Double](6))
    val U = RefDijkstra.Unreachable
    check(RefDijkstra.sssp(net, 0).sameElements(Array(0L, 3, 1, 8, 11, U)), "Dijkstra from 0")
    check(RefDijkstra.sssp(net, 4).sameElements(Array(11L, 8, 10, 3, 0, U)), "Dijkstra from 4")
    net.w(2) = 10 // edge 2-1
    check(RefDijkstra.sssp(net, 0).sameElements(Array(0L, 4, 1, 9, 12, U)), "Dijkstra after update")
    check(net.pristine().w(2) == 2, "pristine copy keeps the original weights")
  }

  private def percentiles(): Unit = {
    val thousand = Array.tabulate(1000)(i => (i + 1).toDouble)
    check(Stats.percentile(thousand, 0.99).contains(990.0), "p99 of 1..1000 is 990 with 10 beyond")
    check(Stats.percentile(thousand.drop(1), 0.99).isEmpty, "p99 of 999 samples has only 9 beyond")
    check(Stats.percentile(thousand, 0.5).contains(500.0), "p50 of 1..1000")
    check(Stats.percentile(Array(5.0, 1, 3, 2, 4) ++ Array.fill(20)(9.0), 0.1).contains(3.0), "unsorted input")
    check(Stats.percentile(Array.fill(10)(1.0), 0.5).isEmpty, "p50 of 10 samples has 5 beyond")
    check(Stats.median(Seq(3.0, 1, 2)) == 2.0 && Stats.median(Seq(4.0, 1, 3, 2)) == 2.5, "median")
  }

  /** The closed form against hand values and against a direct average of
    * the response over arrival moments spread evenly across δt.
    */
  private def windowResponse(): Unit = {
    // Two stages, δt = 1: 0.1²/2 + 0.1·0.002 + 0.4·0.002 + 0.5·0.00001
    check(close(Stats.windowResponse(Array(0.1, 0.5), Array(0.002, 0.00001), 1.0), 0.006005),
      "two-stage closed form")
    // Three stages, δt = 2, first open at 0: (0.2·1e-3 + 0.8·1e-4 + 1.0·1e-6) / 2
    check(close(Stats.windowResponse(Array(0.0, 0.2, 1.0), Array(1e-3, 1e-4, 1e-6), 2.0), 1.405e-4),
      "three-stage closed form")
    // A stage opening after δt is never used.
    check(close(Stats.windowResponse(Array(0.0, 3.0), Array(1e-3, 1e-6), 2.0), 1e-3), "clamped open")

    def direct(opens: Array[Double], means: Array[Double], deltaT: Double, steps: Int): Double = {
      var sum = 0.0
      for (i <- 0 until steps) {
        val a = (i + 0.5) * deltaT / steps
        sum += (if (a < opens(0)) opens(0) - a + means(0) else means(opens.lastIndexWhere(_ <= a)))
      }
      sum / steps
    }
    for ((opens, means, dt) <- Seq(
           (Array(0.05, 0.4), Array(3e-3, 2e-6), 1.2),
           (Array(0.01, 0.3, 0.45), Array(2e-3, 4e-4, 1e-6), 0.6))) {
      val exact = Stats.windowResponse(opens, means, dt)
      check(math.abs(direct(opens, means, dt, 200000) - exact) < 1e-4 * exact,
        s"closed form ${opens.mkString(",")} matches the direct average")
    }
  }
}
