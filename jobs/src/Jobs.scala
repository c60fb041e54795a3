package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{Harness, Tables}

/** spark-submit entrypoint for every reproduced table/figure:
  *
  *   sbt "jobs/runMain repro.jobs.Jobs <table> [scale]"
  *
  * It prints the same markdown table the table's bench suite produces.
  */
object Jobs {
  private val tables: Map[String, (SparkSession, Double) => Unit] = Map(
    "datasets"    -> ((s, x) => println(Tables.datasets(s, x))),
    "overall"     -> ((s, x) => { println(Tables.overall(s, x)); println(Tables.vertexUpdates(s, x)) }),
    "breakdown"   -> ((s, x) => println(Tables.breakdown(s, x))),
    "replication" -> ((s, x) => println(Tables.replication(s, x))),
    "scaling"     -> ((s, x) => println(Tables.threadScaling(s, x))),
    "batchsize"   -> ((s, x) => println(Tables.batchSize(s, x))),
    "overhead"    -> ((s, x) => println(Tables.overhead(s, x))),
  )

  def main(args: Array[String]): Unit = {
    val table = args.headOption.flatMap(tables.get).getOrElse {
      System.err.println(
        s"usage: repro.jobs.Jobs <${tables.keys.toSeq.sorted.mkString("|")}> [scale]")
      sys.exit(2)
    }
    val scale = args.lift(1).map(_.toDouble).getOrElse(Harness.benchScale)
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("layph-repro")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    table(s, scale)
    s.stop()
  }
}
