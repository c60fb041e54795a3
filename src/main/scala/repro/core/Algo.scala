package repro.core

/** Algebraic kind of an accumulative vertex-centric algorithm.
  *
  * The paper's model (Section II-A) expresses an iterative algorithm as
  * `A = (F, G, X0, M0)` where `F(m, w)` generates an edge message and `G`
  * aggregates messages. All four evaluated workloads fall into one of two
  * commutative semirings, which is what lets Layph deduce shortcut weights
  * automatically (Definition 3 / Equation 6):
  *
  *  - [[MinPlus]]:  F = m + w, G = min   (SSSP, BFS) — selective/idempotent.
  *  - [[SumTimes]]: F = m * w, G = +     (PageRank, PHP) — accumulative/linear.
  */
sealed trait AlgebraKind extends Serializable
case object MinPlus  extends AlgebraKind
case object SumTimes extends AlgebraKind

/** A vertex-centric accumulative algorithm `A = (F, G, X0, M0)`.
  *
  * Edge weights seen by `gen` are *algorithm weights* produced by
  * [[edgeWeight]] from the raw graph weight and the source vertex's
  * out-degree statistics (PageRank folds `d / N_u` into the weight, PHP
  * folds `d * w / W_u`), so that `F` is always a pure semiring action
  * `m ⊗ w`. This is exactly what makes shortcut weights composable.
  */
trait VCAlgo extends Serializable {
  def name: String
  def kind: AlgebraKind

  /** Message generation F(m, w). */
  @inline final def gen(m: Double, w: Double): Double = kind match {
    case MinPlus  => m + w
    case SumTimes => m * w
  }

  /** Message aggregation G(a, b). */
  @inline final def agg(a: Double, b: Double): Double = kind match {
    case MinPlus  => math.min(a, b)
    case SumTimes => a + b
  }

  /** Identity of G: the "no message" element (+inf for min, 0 for sum). */
  @inline final def zero: Double = kind match {
    case MinPlus  => Double.PositiveInfinity
    case SumTimes => 0.0
  }

  /** Identity weight of F: propagating with it leaves a message unchanged
    * (0 for `+`, 1 for `*`). This is the "unit message" of Equation 6 used
    * to bootstrap shortcut deduction.
    */
  @inline final def one: Double = kind match {
    case MinPlus  => 0.0
    case SumTimes => 1.0
  }

  /** Initial vertex state x_v^0 for a non-root vertex. */
  @inline final def defaultState: Double = kind match {
    case MinPlus  => Double.PositiveInfinity
    case SumTimes => 0.0
  }

  /** Convergence / emission threshold: messages below it are dropped
    * (only meaningful for [[SumTimes]]; [[MinPlus]] converges exactly).
    */
  def eps: Double

  /** Root vertices carrying the initial messages M0. `None` = every vertex
    * (PageRank seeds 1-d everywhere).
    */
  def roots: Option[Set[Long]]

  /** Initial message m_v^0 for a root vertex v. */
  def initMsg(v: Long): Double

  /** The initial messages M0 of a run over `vertices`: one per root, or one
    * per vertex when every vertex is a root.
    */
  final def initialMessages(vertices: Iterable[Long]): Seq[(Long, Double)] =
    roots.getOrElse(vertices).toSeq.map(v => v -> initMsg(v))

  /** Vertices that absorb incoming messages (never re-emit nor apply them).
    * PHP penalizes walks returning to the query root; the root's state is
    * pinned by its initial message instead.
    */
  def absorbing: Set[Long] = Set.empty

  /** Algorithm weight of an edge (u, v): raw weight + out-degree stats of u.
    *
    * @param raw     raw edge weight from the input graph
    * @param outDeg  number of out-edges of u (N_u)
    * @param sumW    sum of raw weights of u's out-edges (W_u)
    */
  def edgeWeight(raw: Double, outDeg: Int, sumW: Double): Double

  /** True iff the weight of (u, *) depends on u's out-degree stats, so a
    * structural change at u revises *all* of u's out-edges (PR / PHP).
    */
  def degreeDependent: Boolean

  /** Whether x and m improve monotonically (min) — lets min-based engines
    * treat state as "best known distance".
    */
  final def selective: Boolean = kind == MinPlus
}

/** Single-source shortest paths on a directed weighted graph. */
final case class SSSP(source: Long) extends VCAlgo {
  val name = "SSSP"
  val kind: AlgebraKind = MinPlus
  val eps  = 0.0
  val roots: Option[Set[Long]] = Some(Set(source))
  def initMsg(v: Long): Double = 0.0
  def edgeWeight(raw: Double, outDeg: Int, sumW: Double): Double = raw
  val degreeDependent = false
}

/** Breadth-first search: hop count from a source (weights collapse to 1). */
final case class BFS(source: Long) extends VCAlgo {
  val name = "BFS"
  val kind: AlgebraKind = MinPlus
  val eps  = 0.0
  val roots: Option[Set[Long]] = Some(Set(source))
  def initMsg(v: Long): Double = 0.0
  def edgeWeight(raw: Double, outDeg: Int, sumW: Double): Double = 1.0
  val degreeDependent = false
}

/** Asynchronous accumulative PageRank (Maiter-style, provably equivalent to
  * power-method PageRank): F = m * d / N_u, G = sum, x0 = 0, m0 = 1 - d.
  * Dangling vertices leak their mass (standard delta-PR behaviour).
  */
final case class PageRank(d: Double = 0.85, eps: Double = 1e-6) extends VCAlgo {
  val name = "PageRank"
  val kind: AlgebraKind = SumTimes
  val roots: Option[Set[Long]] = None
  def initMsg(v: Long): Double = 1.0 - d
  def edgeWeight(raw: Double, outDeg: Int, sumW: Double): Double =
    if (outDeg == 0) 0.0 else d / outDeg
  val degreeDependent = true
}

/** Penalized hitting probability (Guan et al., SIGMOD'11) w.r.t. a root:
  * decayed random-walk mass from the root over weight-normalized edges;
  * walks re-entering the root are killed (the root absorbs), its own score
  * is pinned to 1.
  */
final case class PHP(source: Long, d: Double = 0.85, eps: Double = 1e-6) extends VCAlgo {
  val name = "PHP"
  val kind: AlgebraKind = SumTimes
  val roots: Option[Set[Long]] = Some(Set(source))
  def initMsg(v: Long): Double = 1.0
  override val absorbing: Set[Long] = Set(source)
  def edgeWeight(raw: Double, outDeg: Int, sumW: Double): Double =
    if (sumW <= 0.0) 0.0 else d * raw / sumW
  val degreeDependent = true
}
