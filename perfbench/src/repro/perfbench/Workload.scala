package repro.perfbench

import repro.baseline.{MHLSolution, PMHLSolution, PostMHLSolution, Solution}
import repro.graph.RoadGraph

/** One benchmark workload: the seeded network's shape, the index under
  * test and its parameters, the update stream and the §II QoS bound R*q.
  *
  * @param shapeSeed the `GridGen` seed of the dataset whose corridor this
  *                  is; it fixes the network's shape, while `--seed` draws
  *                  the weights, batches and query pairs
  * @param burst     multiple of the default update volume n/50 per batch
  */
final case class Workload(
    name: String,
    width: Int,
    length: Int,
    shapeSeed: Long,
    index: String,
    k: Int,
    tau: Int,
    ke: Int,
    burst: Int,
    rqStar: Double,
) {
  def updateVolume(n: Int): Int = burst * math.max(10, n / 50)

  /** Query stages each index releases per batch. */
  def stageCount: Int = index match { case "PMHL" => 5; case "PostMHL" => 4; case "MHL" => 3 }

  def build(g: RoadGraph): Solution = index match {
    case "PMHL" => new PMHLSolution(g, k, Workload.Threads)
    case "PostMHL" => new PostMHLSolution(g, tau, ke, Workload.Threads)
    case "MHL" => new MHLSolution(g)
  }
}

object Workload {
  /** Index worker threads, on every workload (README). */
  val Threads = 1
  /** The §II update interval δt (s), on every workload: the smallest of
    * `Params.deltaTs` (README).
    */
  val DeltaT = 0.6

  /** EC-lite's 48-wide corridor and SC-lite's 44-wide one, both cut to 128
    * rows, with k and k_e scaled by the row count (README).
    */
  val all: Seq[Workload] = Seq(
    Workload("pmhl-ec", 48, 128, 105, "PMHL", k = 4, tau = 52, ke = 8, burst = 1, rqStar = 0.05),
    Workload("postmhl-ec", 48, 128, 105, "PostMHL", k = 4, tau = 52, ke = 8, burst = 1, rqStar = 0.05),
    Workload("mhl-sc-burst", 44, 128, 104, "MHL", k = 12, tau = 48, ke = 24, burst = 5, rqStar = 0.01),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
