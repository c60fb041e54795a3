package perfbench

import repro.core.{AlgebraKind, MinPlus}

/** Summary statistics used by the report. */
object Stats {

  /** Linear-interpolation percentile (q in [0, 1]) of a non-empty sample. */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  def mean(xs: Seq[Double]): Double = xs.sum / xs.length

  /** Unit edge updates applied per second of summed update wall time. */
  def throughput(updatesPerBatch: Int, updateMs: Seq[Double]): Double =
    updatesPerBatch.toDouble * updateMs.length / (updateMs.sum / 1000.0)
}

/** Outcome of comparing a system's states with the reference states. */
final case class Verdict(ok: Boolean, maxErr: Double, detail: String)

/** Per-batch correctness check: Equation 4 against `LocalEngine.batch`. */
object Check {

  /** Tolerances of the repository's own Layph/Ingress correctness specs. */
  def tolerance(kind: AlgebraKind): Double = if (kind == MinPlus) 1e-9 else 2e-3

  /** Every reference vertex must be present, infinities must match exactly,
    * finite states must agree within `tol`, and the state sets must have
    * the same size.
    */
  def compare(ref: collection.Map[Long, Double], got: collection.Map[Long, Double], tol: Double): Verdict = {
    var worst = 0.0
    var firstBad = ""
    ref.foreach { case (v, x) =>
      val y = got.getOrElse(v, Double.NaN)
      val err =
        if (y.isNaN) Double.PositiveInfinity
        else if (x.isInfinite || y.isInfinite) { if (x == y) 0.0 else Double.PositiveInfinity }
        else math.abs(x - y)
      if (err > worst) worst = err
      if (err > tol && firstBad.isEmpty) firstBad = s"vertex $v: expected $x, got $y"
    }
    if (ref.size != got.size && firstBad.isEmpty)
      firstBad = s"state-set size ${got.size}, expected ${ref.size}"
    Verdict(firstBad.isEmpty, worst, firstBad)
  }
}
