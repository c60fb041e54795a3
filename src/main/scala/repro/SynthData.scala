package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic graph data for the benchmark workloads. */
object SynthData {

  /** Directed weighted graph with planted community structure — the
    * synthetic stand-in for the paper's web/social graphs (UK/IT/SK/WB),
    * scaled to laptop size. Vertices 0..nComm*commSize-1 are grouped into
    * contiguous communities; most edges stay inside a community, and the
    * cross-community edges come in two flavors:
    *
    *  - "bursts": one source vertex firing `burstFan` edges into a single
    *    foreign community — the high-degree boundary pattern of Figure 4
    *    that makes vertex replication pay off;
    *  - single random cross edges.
    *
    * Deterministic in the seed; integer weights in [1, 10]. Self loops and
    * duplicate (src, dst) pairs are dropped.
    *
    * @return DataFrame (src: long, dst: long, w: double)
    */
  def communityGraph(
      spark: SparkSession,
      nComm: Int,
      commSize: Int,
      intraDegree: Double,
      nBursts: Int,
      burstFan: Int,
      nSingles: Int,
      seed: Long = 7,
  ): DataFrame = {
    import spark.implicits._
    val nV = nComm.toLong * commSize
    val nIntra = (nV * intraDegree).toLong

    val intra = spark.range(nIntra).select(
      (col("id") % nComm) as "c",
      (rand(seed)     * commSize).cast(LongType) as "so",
      (rand(seed + 1) * commSize).cast(LongType) as "do",
      (rand(seed + 2) * 10 + 1).cast(IntegerType).cast(DoubleType) as "w",
    ).select(
      (col("c") * commSize + col("so")) as "src",
      (col("c") * commSize + col("do")) as "dst",
      col("w"),
    )

    val bursts = spark.range(nBursts.toLong).select(
      (rand(seed + 3) * nV).cast(LongType) as "src",
      (rand(seed + 4) * nComm).cast(LongType) as "tc",
      col("id"),
    ).crossJoin(spark.range(burstFan.toLong).toDF("j")).select(
      col("src"),
      (col("tc") * commSize +
        (rand(seed + 5) * commSize).cast(LongType)) as "dst",
      (rand(seed + 6) * 10 + 1).cast(IntegerType).cast(DoubleType) as "w",
    )

    val singles = spark.range(nSingles.toLong).select(
      (rand(seed + 7) * nV).cast(LongType) as "src",
      (rand(seed + 8) * nV).cast(LongType) as "dst",
      (rand(seed + 9) * 10 + 1).cast(IntegerType).cast(DoubleType) as "w",
    )

    intra.unionByName(bursts).unionByName(singles)
      .where(col("src") =!= col("dst"))
      .groupBy("src", "dst").agg(min(col("w")) as "w")
  }
}
