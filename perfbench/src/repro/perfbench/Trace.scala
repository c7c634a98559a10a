package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** In-memory spans around the benchmark's calls into the program's layers.
  *
  * A span has a name, start and end (ns since the tracer was made), the id
  * of the enclosing span (-1 at top level) and the batch it belongs to
  * (-1 outside the batch loop). Values (counts, per-query latencies) are
  * recorded next to the spans, keyed by name. With `on = false` nothing is
  * recorded and `span` only runs its body.
  */
final class Tracer(val on: Boolean) {
  import Tracer.Span

  private val t0 = System.nanoTime()
  private val spans = mutable.ArrayBuffer[Span]()
  private val series = mutable.LinkedHashMap[String, mutable.ArrayBuffer[Double]]()
  private var open: List[Int] = Nil
  private var nextId = 0
  var batch: Int = -1

  def span[A](name: String)(body: => A): A =
    if (!on) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val start = System.nanoTime()
      try body
      finally {
        spans += Span(id, name, start - t0, System.nanoTime() - t0, parent, batch)
        open = open.tail
      }
    }

  def value(name: String, x: Double): Unit =
    if (on) series.getOrElseUpdate(name, mutable.ArrayBuffer[Double]()) += x

  def values(name: String, xs: Array[Double]): Unit =
    if (on) series.getOrElseUpdate(name, mutable.ArrayBuffer[Double]()) ++= xs

  def spanCount: Int = spans.size

  /** Durations (s) of all spans called `name`. */
  def seconds(name: String): Seq[Double] =
    spans.iterator.filter(_.name == name).map(s => (s.end - s.start) / 1e9).toSeq

  def recorded(name: String): Seq[Double] = series.get(name).map(_.toSeq).getOrElse(Nil)

  /** Spans as JSON lines, then each value series as one line. */
  def write(path: java.nio.file.Path): Unit = {
    val sb = new StringBuilder
    for (s <- spans)
      sb ++= Json.obj(Seq("span" -> s.name, "id" -> s.id, "parent" -> s.parent,
        "batch" -> s.batch, "start_ns" -> s.start, "end_ns" -> s.end)) += '\n'
    for ((k, xs) <- series)
      sb ++= Json.obj(Seq("value" -> k, "samples" -> xs.size, "median" -> Stats.median(xs),
        "values" -> xs.mkString(" "))) += '\n'
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.writeString(path, sb.toString)
  }
}

object Tracer {
  final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, batch: Int)
}

/** Host and JVM counters that tell a noisy run from a slower program. */
final class HostRecord {
  private val osBean =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threadBean =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** (steal, total) jiffies of all CPUs from /proc/stat, or (0, 0). */
  private def cpuJiffies(): (Long, Long) =
    try {
      val f = scala.io.Source.fromFile("/proc/stat")
      try {
        val xs = f.getLines().next().trim.split("\\s+").drop(1).take(8).map(_.toLong)
        (if (xs.length > 7) xs(7) else 0L, xs.sum)
      } finally f.close()
    } catch { case _: Exception => (0L, 0L) }

  private val (steal0, total0) = cpuJiffies()
  private val cpu0 = osBean.getProcessCpuTime
  private val gc0 = gcMillis()
  private val alloc0 = threadBean.getTotalThreadAllocatedBytes

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Bytes allocated by the calling thread so far. */
  def threadAllocated(): Long = threadBean.getCurrentThreadAllocatedBytes

  /** Noise counters since this record was made. */
  def snapshot(): Seq[(String, Double)] = {
    val (steal1, total1) = cpuJiffies()
    val stealPct = if (total1 > total0) 100.0 * (steal1 - steal0) / (total1 - total0) else 0.0
    Seq(
      "host.steal_pct" -> stealPct,
      "process.cpu_s" -> (osBean.getProcessCpuTime - cpu0) / 1e9,
      "jvm.gc_s" -> (gcMillis() - gc0) / 1e3,
      "jvm.alloc_mb" -> (threadBean.getTotalThreadAllocatedBytes - alloc0) / 1e6,
    )
  }
}

/** Counts checked operations and failed ones; reports the first failures. */
final class Checker {
  var attempted = 0L
  var failed = 0L

  def apply(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (failed <= 10) System.err.println(s"check failed: $what")
    }
  }

  /** A distance answer against the reference (Unreachable ↔ ≥ the program's Inf). */
  def dist(answer: Int, ref: Long, what: => String): Unit =
    apply(if (ref == RefDijkstra.Unreachable) answer >= Int.MaxValue / 4 else answer.toLong == ref,
      s"$what = $answer, reference $ref")
}

/** Minimal JSON writer for nested objects of strings, numbers and booleans. */
object Json {
  def value(x: Any): String = x match {
    case s: String => "\"" + s.flatMap {
        case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
      } + "\""
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d"); d.toString
    case b: Boolean => b.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case kv: Seq[_] => obj(kv.asInstanceOf[Seq[(String, Any)]])
    case other => sys.error(s"cannot write $other as JSON")
  }
  def obj(kv: Seq[(String, Any)]): String =
    kv.map { case (k, v) => value(k) + ": " + value(v) }.mkString("{", ", ", "}")
}
