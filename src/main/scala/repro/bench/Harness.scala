package repro.bench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.baselines._
import repro.ingress.IngressEngine
import repro.layph.{LayphConfig, LayphEngine}

/** One (system, graph, algorithm) measurement. */
final case class Cell(
    system: String,
    graph: String,
    algo: String,
    initStats: RunStats,
    incStats: RunStats,       // summed over all incremental rounds
    maxErrVsRestart: Double,  // result fidelity of the final states
)

/** Shared runner + table formatting for the benchmark suites. */
object Harness {

  /** The paper's per-algorithm competitor sets (Section VI-A): KickStarter
    * and RisGraph only support single-dependency (min) workloads; GraphBolt
    * and DZiG only accumulative ones; Restart, Ingress and Layph run both.
    */
  def systemsFor(spark: SparkSession, kind: AlgebraKind, partitions: Int = 8,
                 layphCfg: LayphConfig = LayphConfig()): Seq[IncrementalSystem] =
    kind match {
      case MinPlus => Seq(
        new RestartEngine(spark, partitions),
        new KickStarterEngine(spark, partitions),
        new RisGraphEngine(spark, partitions),
        new IngressEngine(spark, partitions),
        new LayphEngine(spark, layphCfg, partitions))
      case SumTimes => Seq(
        new RestartEngine(spark, partitions),
        new GraphBoltEngine(spark, partitions),
        new DZiGEngine(spark, partitions),
        new IngressEngine(spark, partitions),
        new LayphEngine(spark, layphCfg, partitions))
    }

  /** Runs every system over the same initial graph + delta sequence and
    * cross-checks all final states against Restart (Equation 4).
    */
  def runScenario(
      graphName: String,
      g: GraphState,
      algo: VCAlgo,
      systems: Seq[IncrementalSystem],
      deltas: Seq[GraphDelta],
  ): Seq[Cell] = {
    var restartStates: mutable.LongMap[Double] = null
    systems.map { sys =>
      val init = sys.initialize(g, algo)
      var inc = RunStats(0, 0, 0)
      var last: SparkRun = null
      deltas.foreach { d => last = sys.update(d); inc = inc + last.stats }
      if (sys.name == "Restart") restartStates = last.states
      val err = if (restartStates == null) Double.NaN else maxErr(restartStates, last.states)
      Cell(sys.name, graphName, algo.name, init.stats, inc, err)
    }
  }

  def maxErr(a: mutable.LongMap[Double], b: mutable.LongMap[Double]): Double = {
    var worst = 0.0
    a.foreach { case (v, x) =>
      val y = b.getOrElse(v, Double.NaN)
      val d =
        if (x.isInfinite && y.isInfinite) 0.0
        else if (y.isNaN) Double.PositiveInfinity
        else math.abs(x - y)
      if (d > worst) worst = d
    }
    worst
  }

  /** GitHub-style markdown table. */
  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    (fmt(header) +: widths.map("-" * _).mkString("| ", " | ", " |") +: rows.map(fmt)).mkString("\n")
  }

  def benchScale: Double = sys.env.get("BENCH_SCALE").map(_.toDouble).getOrElse(1.0)
}
