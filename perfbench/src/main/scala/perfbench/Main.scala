package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.ingress.IngressEngine
import repro.layph.{Community, LayphConfig, LayphEngine}

/** One benchmark workload: a system and an algorithm over the shared graph
  * and ΔG stream.
  */
final case class Workload(name: String, algo: VCAlgo, layph: Boolean) {
  def make(spark: SparkSession, partitions: Int): IncrementalSystem =
    if (layph) new LayphEngine(spark, Main.layphConfig, partitions)
    else new IngressEngine(spark, partitions)
}

/** Command-line settings of one run; `Main.usage` lists the flags. */
final case class Settings(workload: Workload, seed: Long, seconds: Double, trace: Boolean)

/** Measurements of one `update(ΔG)` call. */
final case class Batch(
    wallMs: Double,
    stats: RunStats,
    phases: Seq[(String, Long)],
    verdict: Verdict,
    refMs: Double,
    applyMs: Double,
    adjacencyMs: Double,
    spark: Option[SparkWork],
)

/** Closed-loop benchmark driver: one client submits the next ΔG batch only
  * after `IncrementalSystem.update` returned and its result was checked
  * against `LocalEngine.batch` on the benchmark's mirror graph. Prints one
  * line per metric and, last, the result as one JSON object.
  */
object Main {
  val Workloads: Seq[Workload] = Seq(
    Workload("layph-sssp-web", SSSP(0), layph = true),
    Workload("layph-pagerank-web", PageRank(eps = 1e-6), layph = true),
    Workload("ingress-sssp-web", SSSP(0), layph = false),
  )
  val layphConfig: LayphConfig = LayphConfig()

  /** Half the UK profile's communities: at full scale one run of the gated
    * workloads no longer fits the benchmark's time budget.
    */
  val Scale = 0.5
  /** Set-ups per run; `setup_s` is their median. */
  val Setups = 3
  /** Batches checked but not timed; the first is also reported as cold. */
  val WarmBatches = 3
  /** Timed batches run even when `--seconds` is already used up. */
  val MinBatches = 3
  val BatchAdds = 50
  val BatchDels = 50
  val StreamBatches = 120

  val usage: String =
    "usage: perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>\n" +
      s"workloads: ${Workloads.map(_.name).mkString(", ")}"

  def parse(args: Array[String]): Either[String, Settings] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (args.length % 2 != 0 || kv.size * 2 != args.length) return Left(usage)
    for {
      name <- kv.get("workload").toRight(usage)
      wl <- Workloads.find(_.name == name).toRight(s"unknown workload '$name'\n$usage")
      seed <- kv.get("seed").flatMap(_.toLongOption).toRight(usage)
      secs <- kv.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).toRight(usage)
      trace <- kv.get("trace").collect { case "0" => false; case "1" => true }.toRight(usage)
    } yield Settings(wl, seed, secs, trace)
  }

  def main(args: Array[String]): Unit = parse(args) match {
    case Left(msg) =>
      Console.err.println(msg)
      sys.exit(2)
    case Right(s) =>
      val cores = Runtime.getRuntime.availableProcessors()
      val spark = SparkSession.builder()
        .master(s"local[$cores]")
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.sql.shuffle.partitions", cores.toString)
        .getOrCreate()
      spark.sparkContext.setLogLevel("ERROR")
      val ok =
        try new Bench(spark, s).run()
        finally spark.stop()
      sys.exit(if (ok) 0 else 1)
  }
}

final class Bench(spark: SparkSession, s: Settings) {
  import Main._
  private val sc = spark.sparkContext
  private val algo = s.workload.algo
  private val partitions = sc.defaultParallelism
  private val tol = Check.tolerance(algo.kind)
  private val trace = if (s.trace) Some(new SparkTrace(sc)) else None
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]

  private def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6
  /** Progress line on stderr with seconds since JVM start. */
  private def step(what: String): Unit = {
    val up = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0
    Console.err.println(f"perfbench: t=$up%.1fs $what")
  }
  private def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  /** Runs the workload; returns whether every result was correct. */
  def run(): Boolean = {
    step("spark session ready")
    // one fixed graph, like the paper's datasets; the seed draws the ΔG stream
    val inputs = Gen.inputs(Shape.UK.scaled(Scale), Shape.UKSeed, s.seed, StreamBatches, BatchAdds, BatchDels)
    val mirror = GraphState.fromEdges(inputs.edges)
    step(s"inputs ready: ${inputs.fingerprint.toJson}")

    // set-up: graph hand-off + initialize, repeated; the last system is kept
    var system: IncrementalSystem = null
    var init: SparkRun = null
    val setupS = (1 to Setups).map { _ =>
      system = null; init = null
      val t0 = System.nanoTime()
      val fresh = s.workload.make(spark, partitions)
      init = fresh.initialize(GraphState.fromEdges(inputs.edges), algo)
      system = fresh
      step("set-up done")
      ms(t0) / 1000
    }
    val initVerdict = Check.compare(LocalEngine.batch(algo, mirror).states, init.states, tol)
    init = null
    val rt = Runtime.getRuntime
    val heapMb = (1 to 3).map { _ =>
      System.gc(); Thread.sleep(50)
      (rt.totalMemory() - rt.freeMemory()) / 1048576.0
    }.min
    val layph = system match { case l: LayphEngine => Some(l); case _ => None }
    val layering = layph.map(l => (l.offlinePreprocessMs, l.upperLayerSize, l.subgraphStats))
    val detectMs = if (s.trace && layph.isDefined) {
      val t0 = System.nanoTime()
      Community.detectMap(spark, mirror.toDF(spark), layphConfig.lpaRounds, layphConfig.maxCommunitySize)
      ms(t0)
    } else 0.0

    // closed loop over the ΔG stream: batch 0 is the cold batch, and the
    // first `WarmBatches` batches are checked but not timed
    val batches = mutable.ArrayBuffer.empty[Batch]
    var errors = 0
    var timedMs = 0.0
    var k = 0
    while (k < inputs.stream.length && errors == 0 &&
        (k < WarmBatches + MinBatches || timedMs < s.seconds * 1000)) {
      runBatch(k, system, mirror, inputs.stream(k)) match {
        case Right(b) =>
          batches += b
          step(f"batch $k: update ${b.wallMs}%.0f ms, ${b.stats.iterations} rounds, " +
            s"${b.stats.activations} activations, check ${b.refMs.round} ms")
          if (k >= WarmBatches) timedMs += b.wallMs
          if (!b.verdict.ok) Console.err.println(s"batch $k failed the check: ${b.verdict.detail}")
        case Left(e) =>
          errors += 1
          Console.err.println(s"batch $k threw: $e")
      }
      k += 1
    }
    val attempted = k
    step(s"stream done: $attempted batches")
    val failed = errors + batches.count(!_.verdict.ok)
    val timed = batches.drop(WarmBatches).toSeq
    if (timed.isEmpty) {
      Console.err.println("no timed batch completed")
      return false
    }
    val wall = timed.map(_.wallMs)
    val activations = Stats.mean(timed.map(_.stats.activations.toDouble))

    if (!s.trace) {
      metric("edge_updates_per_s", Stats.throughput(BatchAdds + BatchDels, wall), "1/s")
      metric("setup_s", Stats.median(setupS), "s")
      metric("heap_mb", heapMb, "MB")
    } else {
      metric("activations_per_update", activations, "count")
      val rounds = timed.map(_.stats.iterations.toDouble).sum
      def perUpdate(f: SparkWork => Double): Double = Stats.mean(timed.map(b => f(b.spark.get)))
      def phase(name: String): Double = Stats.mean(timed.map(_.phases.collectFirst { case (`name`, v) => v.toDouble }.getOrElse(0.0)))
      val roundMs = if (layph.isDefined) phase("upper_iteration") * timed.length else wall.sum
      metric("bsp.rounds_per_update", rounds / timed.length, "count")
      metric("bsp.ms_per_round", if (rounds > 0) roundMs / rounds else 0.0, "ms")
      metric("spark.jobs_per_update", perUpdate(_.jobs), "count")
      metric("spark.stages_per_update", perUpdate(_.stages), "count")
      metric("spark.tasks_per_update", perUpdate(_.tasks), "count")
      metric("spark.task_run_ms_per_update", perUpdate(_.taskRunMs.toDouble), "ms")
      metric("spark.executor_busy_share",
        timed.map(_.spark.get.taskRunMs.toDouble).sum / (wall.sum * partitions), "ratio")
      metric("spark.shuffle_write_kb_per_update", perUpdate(_.shuffleWriteBytes / 1024.0), "KB")
      metric("spark.result_kb_per_update", perUpdate(_.resultBytes / 1024.0), "KB")
      metric("spark.driver_only_ms_per_update",
        Stats.mean(timed.map(b => math.max(0.0, b.wallMs - b.spark.get.jobMs))), "ms")
      val phaseNames = Seq("layer_update", "upload", "upper_iteration", "assignment")
      phaseNames.foreach(p => metric(s"layph.${p}_ms", phase(p), "ms"))
      metric("layph.unphased_ms",
        if (layph.isDefined) Stats.mean(wall) - phaseNames.map(phase).sum else 0.0, "ms")
      val (offMs, (upV, upE), sgStats) = layering.getOrElse((0L, (0, 0L), Seq.empty))
      metric("layph.offline_ms", offMs.toDouble, "ms")
      metric("layph.upper_vertices", upV.toDouble, "count")
      metric("layph.upper_edges", upE.toDouble, "count")
      metric("layph.subgraphs", sgStats.size.toDouble, "count")
      metric("layph.shortcut_entries", sgStats.map { case (_, v, e, _) => v.toLong * e }.sum.toDouble, "count")
      metric("community.detect_ms", detectMs, "ms")
      metric("graph.apply_delta_ms", Stats.median(timed.map(_.applyMs)), "ms")
      metric("graph.adjacency_ms", Stats.median(timed.map(_.adjacencyMs)), "ms")
      metric("check.ref_ms", Stats.median(timed.map(_.refMs)), "ms")
      metric("check.max_err", batches.map(_.verdict.maxErr).max, "abs")
      metric("update.cold_ms", batches.head.wallMs, "ms")
      metric("trace.update_ms_p50", Stats.median(wall), "ms")
    }

    val fp = inputs.fingerprint
    val env = Seq(
      "workload" -> q(s.workload.name), "system" -> q(system.name), "algo" -> q(algo.name),
      "seed" -> s.seed.toString, "graph_seed" -> Shape.UKSeed.toString, "scale" -> Scale.toString, "trace" -> s.trace.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors().toString, "master" -> q(sc.master),
      "default_parallelism" -> sc.defaultParallelism.toString, "engine_partitions" -> partitions.toString,
      "driver_heap_max_mb" -> (rt.maxMemory() / 1048576).toString,
      "git_sha" -> q(sys.props.getOrElse("perfbench.gitsha", "unknown")),
      "source_hash" -> q(sys.props.getOrElse("perfbench.srchash", "unknown")),
      "batch_size" -> (BatchAdds + BatchDels).toString, "setups" -> Setups.toString,
      "warm_batches" -> WarmBatches.toString,
      "timed_batches" -> timed.length.toString, "attempted" -> attempted.toString,
      "failed_share" -> (failed.toDouble / attempted).toString,
      "init_check_ok" -> initVerdict.ok.toString, "max_err" -> batches.map(_.verdict.maxErr).max.toString,
      "tolerance" -> tol.toString, "input" -> fp.toJson)
    println("env " + env.map { case (k2, v) => s"${q(k2)}: $v" }.mkString("{", ", ", "}"))
    metrics.foreach { case (n, (v, u)) => println(f"metric $n%-36s $v%.6g $u") }
    // not in the result object, see README.md: a median that jumps between
    // round-count clusters, a count that varies with the seed, and a share
    // that is 0 whenever the program is correct
    if (!s.trace) {
      println(f"metric ${"update_ms_p50"}%-36s ${Stats.median(wall)}%.6g ms (n=${wall.length})")
      println(f"metric ${"activations_per_update"}%-36s $activations%.6g count")
    }
    println(s"metric failed_share ${failed.toDouble / attempted} ratio ($failed of $attempted batches)")
    println(s"samples timed_batches=${timed.length} warm_batches=$WarmBatches")
    if (!initVerdict.ok) Console.err.println(s"initial states failed the check: ${initVerdict.detail}")
    val correct = failed == 0 && initVerdict.ok
    val ms2 = metrics.map { case (n, (v, u)) => s"${q(n)}: {${q("value")}: ${num(v)}, ${q("unit")}: ${q(u)}}" }
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": ${ms2.mkString("{", ", ", "}")}}""")
    correct
  }

  private def runBatch(k: Int, system: IncrementalSystem, mirror: GraphState, d: GraphDelta): Either[Throwable, Batch] = {
    val group = s"perfbench-update-$k"
    val fromMs = System.currentTimeMillis()
    val t0 = System.nanoTime()
    val run =
      try Right(trace.fold(system.update(d))(_.traced(group)(system.update(d))))
      catch { case NonFatal(e) => Left(e) }
    val wallMs = ms(t0)
    val toMs = System.currentTimeMillis()
    run.map { r =>
      val work = trace.map { t => t.drain(); t.work(group, fromMs, toMs) }
      val phases = system match { case l: LayphEngine => l.lastPhases; case _ => Nil }
      val ta = System.nanoTime(); mirror.applyDelta(d); val applyMs = ms(ta)
      val adjMs = if (s.trace) { val tb = System.nanoTime(); mirror.adjacency(algo); ms(tb) } else 0.0
      val tr = System.nanoTime()
      val ref = LocalEngine.batch(algo, mirror)
      val refMs = ms(tr)
      Batch(wallMs, r.stats, phases, Check.compare(ref.states, r.states, tol), refMs, applyMs, adjMs, work)
    }
  }

  private def q(x: String): String = "\"" + x.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
  private def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString
}
