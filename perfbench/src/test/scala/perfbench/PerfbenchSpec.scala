package perfbench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Checks of the benchmark's own code: input generation, statistics and
  * the per-batch correctness check. Run with `sbt test` in perfbench/.
  */
class PerfbenchSpec extends AnyFunSuite {
  private val small = Shape.UK.scaled(0.1)
  private def inputs(seed: Long) = Gen.inputs(small, Shape.UKSeed, seed, nBatches = 6, nAdd = 50, nDel = 50)

  private def withSession[T](master: String)(body: => T): T = {
    val spark = SparkSession.builder().master(master).appName("perfbench-spec")
      .config("spark.ui.enabled", "false").getOrCreate()
    try body finally spark.stop()
  }

  test("generator fingerprint is the same under local[1], local[4] and repeated calls") {
    val one = withSession("local[1]")(inputs(7).fingerprint)
    val four = withSession("local[4]")(Seq(inputs(7).fingerprint, inputs(7).fingerprint))
    assert(four.forall(_ == one))
  }

  test("different seeds give different fingerprints") {
    val fps = (1L to 4L).map(inputs(_).fingerprint)
    assert(fps.map(_.streamHash).distinct.size == fps.size)
    assert(fps.map(_.edgeHash).distinct.size == 1, "the graph seed is fixed")
    val graphs = (1L to 4L).map(g => Inputs(Gen.graph(small, g), IndexedSeq.empty).fingerprint.edgeHash)
    assert(graphs.distinct.size == graphs.size)
  }

  test("graph has the profile's shape: no self loops or duplicate pairs") {
    val in = inputs(3)
    assert(in.edges.forall(e => e.src != e.dst))
    assert(in.edges.map(e => (e.src, e.dst)).distinct.length == in.edges.length)
    assert(in.fingerprint.vertices <= small.numVertices)
    assert(in.edges.length > small.numVertices * small.intraDegree * 0.9)
  }

  test("every batch inserts 50 absent edges and deletes 50 present edges") {
    val in = inputs(5)
    val g = GraphState.fromEdges(in.edges)
    in.stream.foreach { d =>
      assert(d.size == 100)
      val eff = g.applyDelta(d)
      assert(eff.count(_.isAdd) == 50 && eff.count(!_.isAdd) == 50)
    }
  }

  test("percentile, median and throughput on a fixed sample") {
    val xs = Seq(40.0, 10.0, 30.0, 20.0)
    assert(Stats.median(xs) == 25.0)
    assert(Stats.percentile(xs, 0.0) == 10.0)
    assert(Stats.percentile(xs, 1.0) == 40.0)
    assert(math.abs(Stats.percentile(xs, 0.9) - 37.0) < 1e-12)
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.mean(xs) == 25.0)
    // 4 batches of 100 updates in 100 ms of update time: 4000 updates/s
    assert(math.abs(Stats.throughput(100, xs) - 4000.0) < 1e-9)
  }

  test("correctness check passes on equal states and trips on a perturbed map") {
    val ref = mutable.LongMap(1L -> 0.0, 2L -> 3.0, 3L -> Double.PositiveInfinity)
    assert(Check.compare(ref, ref.clone(), Check.tolerance(MinPlus)).ok)

    val drift = ref.clone(); drift(2L) = 3.0 + 1e-6
    val v = Check.compare(ref, drift, Check.tolerance(MinPlus))
    assert(!v.ok && math.abs(v.maxErr - 1e-6) < 1e-12)
    assert(Check.compare(ref, drift, Check.tolerance(SumTimes)).ok)

    val reached = ref.clone(); reached(3L) = 9.0
    assert(!Check.compare(ref, reached, Check.tolerance(MinPlus)).ok)
    val missing = ref.clone(); missing.remove(1L)
    assert(!Check.compare(ref, missing, Check.tolerance(MinPlus)).ok)
    val extra = ref.clone(); extra(4L) = 1.0
    assert(!Check.compare(ref, extra, Check.tolerance(MinPlus)).ok)
  }

  test("correctness check trips on perturbed Layph-style PageRank states") {
    val in = inputs(11)
    val g = GraphState.fromEdges(in.edges)
    val ref = LocalEngine.batch(PageRank(eps = 1e-6), g).states
    val tol = Check.tolerance(SumTimes)
    assert(Check.compare(ref, ref.clone(), tol).ok)
    val bad = ref.clone(); bad(ref.keysIterator.next()) += 10 * tol
    assert(!Check.compare(ref, bad, tol).ok)
  }
}
