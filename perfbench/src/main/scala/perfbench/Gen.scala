package perfbench

import java.util.SplittableRandom
import scala.collection.mutable
import repro.core.{EdgeUpdate, GraphDelta, RawEdge}

/** Shape of a planted-community web graph: the UK profile of
  * `repro.bench.Workloads`, drawn here on the Spark driver so the graph
  * depends only on the seed (never on Spark's partition count).
  */
final case class Shape(
    nComm: Int,
    commSize: Int,
    intraDegree: Double,
    nBursts: Int,
    burstFan: Int,
    nSingles: Int,
) {
  def numVertices: Int = nComm * commSize

  /** Same density and cross-edge mix on `scale` times as many communities. */
  def scaled(scale: Double): Shape = copy(
    nComm = math.max(2, (nComm * scale).toInt),
    nBursts = math.max(1, (nBursts * scale).toInt),
    nSingles = math.max(1, (nSingles * scale).toInt))
}

object Shape {
  val UK: Shape = Shape(140, 80, 6.0, 500, 4, 1200)
  /** Seed of the UK profile in `repro.bench.Workloads`. */
  val UKSeed: Long = 11
}

/** |V|, |E| and hashes that identify a generated input. */
final case class Fingerprint(vertices: Int, edges: Int, edgeHash: Long, streamHash: Long) {
  def toJson: String =
    f"""{"vertices": $vertices, "edges": $edges, "edge_hash": "$edgeHash%016x", "stream_hash": "$streamHash%016x"}"""
}

/** A generated graph and its ΔG stream. Edges are sorted by (src, dst). */
final case class Inputs(edges: Array[RawEdge], stream: IndexedSeq[GraphDelta]) {
  lazy val fingerprint: Fingerprint = {
    val eh = edges.foldLeft(Gen.Basis)((h, e) => Gen.mix(Gen.mix(Gen.mix(h, e.src), e.dst), e.w))
    val sh = stream.foldLeft(Gen.Basis) { (h, d) =>
      d.updates.foldLeft(Gen.mix(h, d.size.toLong)) { (h2, u) =>
        Gen.mix(Gen.mix(Gen.mix(Gen.mix(h2, u.src), u.dst), u.w), if (u.isAdd) 1L else 0L)
      }
    }
    val nV = edges.iterator.flatMap(e => Iterator(e.src, e.dst)).toSet.size
    Fingerprint(nV, edges.length, eh, sh)
  }
}

/** Seeded generator of the graph and the edge-update stream. */
object Gen {
  private[perfbench] val Basis = 0x6a09e667f3bcc908L

  /** splitmix64 finalizer over the running hash and the next value. */
  private[perfbench] def mix(h: Long, x: Long): Long = {
    var z = h ^ (x + 0x9e3779b97f4a7c15L + (h << 6) + (h >>> 2))
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
  private[perfbench] def mix(h: Long, w: Double): Long = mix(h, java.lang.Double.doubleToLongBits(w))

  @inline private def key(src: Long, dst: Long): Long = (src << 32) | dst
  @inline private def srcOf(k: Long): Long = k >>> 32
  @inline private def dstOf(k: Long): Long = k & 0xffffffffL
  private def weight(rnd: SplittableRandom): Double = (rnd.nextInt(10) + 1).toDouble

  /** Intra-community edges, bursts of `burstFan` edges from one vertex into a
    * single foreign community, and single random cross edges; integer
    * weights in [1, 10]; self loops dropped; duplicate pairs keep the
    * smaller weight (as `SynthData.communityGraph` does).
    */
  def graph(s: Shape, seed: Long): Array[RawEdge] = {
    val rnd = new SplittableRandom(seed)
    val nV = s.numVertices
    val best = mutable.LongMap.empty[Double]
    def put(src: Long, dst: Long, w: Double): Unit =
      if (src != dst) {
        val k = key(src, dst)
        best.get(k) match {
          case Some(o) if o <= w =>
          case _ => best(k) = w
        }
      }
    val nIntra = (nV.toLong * s.intraDegree).toLong
    var i = 0L
    while (i < nIntra) {
      val c = (i % s.nComm) * s.commSize
      put(c + rnd.nextInt(s.commSize), c + rnd.nextInt(s.commSize), weight(rnd))
      i += 1
    }
    (0 until s.nBursts).foreach { _ =>
      val src = rnd.nextInt(nV).toLong
      val c = rnd.nextInt(s.nComm).toLong * s.commSize
      (0 until s.burstFan).foreach(_ => put(src, c + rnd.nextInt(s.commSize), weight(rnd)))
    }
    (0 until s.nSingles).foreach(_ => put(rnd.nextInt(nV).toLong, rnd.nextInt(nV).toLong, weight(rnd)))
    best.keysIterator.toArray.sorted.map(k => RawEdge(srcOf(k), dstOf(k), best(k)))
  }

  /** `nBatches` batches of `nAdd` insertions of absent edges and `nDel`
    * deletions of distinct existing edges, each batch drawn against the
    * graph as the previous batches left it. Deletions are sampled by index
    * from the sorted edge list, so the stream depends only on the seed.
    */
  def stream(edges: Array[RawEdge], nBatches: Int, nAdd: Int, nDel: Int, seed: Long): IndexedSeq[GraphDelta] = {
    val rnd = new SplittableRandom(seed)
    val verts = edges.iterator.flatMap(e => Iterator(e.src, e.dst)).toArray.distinct.sorted
    var keys = edges.map(e => key(e.src, e.dst))
    val present = mutable.LongMap.empty[Unit]
    keys.foreach(present(_) = ())
    (0 until nBatches).map { _ =>
      val dels = mutable.LinkedHashSet.empty[Long]
      while (dels.size < math.min(nDel, keys.length)) dels += keys(rnd.nextInt(keys.length))
      val adds = mutable.LinkedHashMap.empty[Long, Double]
      while (adds.size < nAdd) {
        val u = verts(rnd.nextInt(verts.length)); val v = verts(rnd.nextInt(verts.length))
        val k = key(u, v)
        if (u != v && !present.contains(k) && !adds.contains(k)) adds(k) = weight(rnd)
      }
      val ups = (dels.iterator.map(k => EdgeUpdate(srcOf(k), dstOf(k), 0.0, isAdd = false)) ++
        adds.iterator.map { case (k, w) => EdgeUpdate(srcOf(k), dstOf(k), w, isAdd = true) }).toArray
      var j = ups.length - 1
      while (j > 0) {
        val r = rnd.nextInt(j + 1)
        val t = ups(j); ups(j) = ups(r); ups(r) = t
        j -= 1
      }
      dels.foreach(present.remove)
      adds.keysIterator.foreach(present(_) = ())
      keys = present.keysIterator.toArray.sorted
      GraphDelta(ups.toSeq)
    }
  }

  def inputs(s: Shape, graphSeed: Long, streamSeed: Long, nBatches: Int, nAdd: Int, nDel: Int): Inputs = {
    val edges = graph(s, graphSeed)
    Inputs(edges, stream(edges, nBatches, nAdd, nDel, streamSeed))
  }
}
