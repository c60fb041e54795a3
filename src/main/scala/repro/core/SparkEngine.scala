package repro.core

import scala.collection.mutable
import org.apache.spark.HashPartitioner
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

final case class SparkRun(states: mutable.LongMap[Double], stats: RunStats)

/** Distributed accumulative engine: Pregel-style BSP rounds on Spark.
  *
  * Vertex states live in a hash-partitioned pair RDD; the (algorithm-
  * weighted) adjacency is broadcast, so each round is one narrow
  * `fullOuterJoin` (apply G) plus one `reduceByKey` shuffle of the
  * generated messages (F). Every engine in this repo — batch, Ingress,
  * the modeled competitors, and Layph's upper-layer iteration — runs
  * through this loop, so response-time and edge-activation comparisons
  * are apples-to-apples.
  *
  * Edge activations (one per F application) are counted with a Spark
  * accumulator; stages are materialized exactly once per round (the
  * `count` on the persisted next frontier), so the counter is exact.
  */
final class SparkEngine(spark: SparkSession, val numPartitions: Int = 8) extends Serializable {
  private val sc = spark.sparkContext
  private val part = new HashPartitioner(numPartitions)

  /** Runs to fixpoint (or `maxIter`) from the given states and seeds.
    *
    * @param states0       full initial state map (every reachable node id)
    * @param seeds         initial pending messages, G-aggregated per vertex
    * @param emitThreshold SumTimes messages below it are not re-emitted
    * @param maxIter       cap on rounds (GraphBolt/DZiG epoch alignment)
    */
  def run(
      algo: VCAlgo,
      adjBc: Broadcast[Adjacency],
      states0: mutable.LongMap[Double],
      seeds: Iterable[(Long, Double)],
      emitThreshold: Double = Double.NaN,
      absorbing: Set[Long] = Set.empty,
      maxIter: Int = Int.MaxValue,
  ): SparkRun = {
    val t0      = System.nanoTime()
    val thr     = if (emitThreshold.isNaN) algo.eps else emitThreshold
    val minPlus = algo.kind == MinPlus
    val acc     = sc.longAccumulator("edge-activations")
    val absBc   = sc.broadcast(absorbing)

    val seedAgg = mutable.LongMap.empty[Double]
    seeds.foreach { case (v, m) =>
      seedAgg.updateWith(v) { case Some(a) => Some(algo.agg(a, m)); case None => Some(m) }
    }
    if (seedAgg.isEmpty) {
      absBc.destroy()
      return SparkRun(states0, RunStats(0, 0, (System.nanoTime() - t0) / 1000000))
    }

    var states: RDD[(Long, Double)] =
      sc.parallelize(states0.toSeq, numPartitions).partitionBy(part)
        .persist(StorageLevel.MEMORY_AND_DISK)
    var frontier: RDD[(Long, Double)] =
      sc.parallelize(seedAgg.toSeq, numPartitions).partitionBy(part)
        .persist(StorageLevel.MEMORY_AND_DISK)
    var live = frontier.count()
    var iters = 0
    val defaultState = algo.defaultState
    val zero = algo.zero
    // RDDs persisted for the round in flight; unpersisted once the *next*
    // round has materialized (they are its narrow-dependency inputs).
    var persistedPrev: List[RDD[_]] = List(states, frontier)

    while (live > 0 && iters < maxIter) {
      iters += 1
      // apply: G folds the aggregated message into the state; emit rule per kind
      val joined = states.fullOuterJoin(frontier, part).mapValues {
        case (xs, ms) =>
          val x = xs.getOrElse(defaultState)
          ms match {
            case Some(m) =>
              if (minPlus) { if (m < x) (m, m) else (x, zero) }
              else { (x + m, if (math.abs(m) >= thr) m else zero) }
            case None => (x, zero)
          }
      }.persist(StorageLevel.MEMORY_AND_DISK)
      if (iters % 15 == 0) joined.localCheckpoint()

      // generate: F over the broadcast adjacency, drop messages into absorbing sinks
      val newFrontier = joined
        .mapPartitions { it =>
          val adj = adjBc.value; val abs = absBc.value
          it.flatMap { case (v, (_, emit)) =>
            if (emit == zero) Iterator.empty
            else adj.get(v) match {
              case Some(out) if out.nonEmpty =>
                acc.add(out.length)
                out.iterator
                  .filterNot { case (d, _) => abs.contains(d) }
                  .map { case (d, w) => (d, algo.gen(emit, w)) }
              case _ => Iterator.empty
            }
          }
        }
        .reduceByKey(part, (a, b) => algo.agg(a, b))
        .persist(StorageLevel.MEMORY_AND_DISK)

      live = newFrontier.count() // materializes joined + newFrontier exactly once
      persistedPrev.foreach(_.unpersist(blocking = false))
      persistedPrev = List(joined, newFrontier)
      states = joined.mapValues(_._1)
      frontier = newFrontier
    }

    val out = mutable.LongMap.empty[Double]
    states.collect().foreach { case (v, x) => out(v) = x }
    persistedPrev.foreach(_.unpersist(blocking = false))
    absBc.destroy()
    SparkRun(out, RunStats(iters, acc.value, (System.nanoTime() - t0) / 1000000))
  }

  /** Batch run of Equation 1 on the full graph from the algorithm's M0. */
  def batch(algo: VCAlgo, g: GraphState, maxIter: Int = Int.MaxValue): SparkRun = {
    val adjBc = sc.broadcast(g.adjacency(algo))
    val states0 = mutable.LongMap.empty[Double]
    val vs = g.vertices
    vs.foreach(v => states0(v) = algo.defaultState)
    val r = run(algo, adjBc, states0, algo.initialMessages(vs),
      absorbing = algo.absorbing, maxIter = maxIter)
    adjBc.destroy()
    r
  }
}
