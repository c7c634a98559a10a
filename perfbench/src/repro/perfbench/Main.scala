package repro.perfbench

import java.nio.file.Paths

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * [--trace-out <file>]`, or `--self-check`.
  *
  * Prints one host-noise line, then as the last line of standard output
  * one JSON object with `correct`, `attempted`, `failed` and `metrics`.
  */
object Main {
  def main(args: Array[String]): Unit = {
    if (args.contains("--self-check")) { SelfCheck.run(); println("self-check passed"); return }
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, sys.error(s"missing --$k"))
    val wl = Workload.byName(opt("workload")).getOrElse(
      sys.error(s"unknown workload ${opt("workload")}; one of ${Workload.all.map(_.name).mkString(", ")}"))
    val trace = opt("trace") match { case "0" => false; case "1" => true; case x => sys.error(s"--trace $x") }

    SelfCheck.run()
    val bench = new Bench(wl, opt("seed").toLong, opt("seconds").toInt, trace)
    val result = bench.run()
    opts.get("trace-out").filter(_ => trace).foreach(p => bench.tr.write(Paths.get(p)))
    println(Json.obj(Seq("noise" -> bench.noise())))
    println(Json.obj(result))
  }
}
