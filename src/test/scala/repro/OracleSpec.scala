package repro

import org.apache.spark.sql.functions._
import repro.core.GraphGen

class OracleSpec extends SparkSpec {

  private def edges = GraphGen.random(60, 3.0, 31).toDF(spark)
  private val outDegreeSql = "SELECT src, COUNT(*) AS n FROM edges GROUP BY src"

  test("oracle accepts a matching aggregate") {
    val df = edges
    val got = df.groupBy("src").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(got, outDegreeSql, "edges" -> df)
  }

  test("oracle rejects a wrong result") {
    val df = edges
    val wrong = df.groupBy("src").agg((count(lit(1)) + 1).as("n"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, outDegreeSql, "edges" -> df)
    }
  }

  test("oracle rejects a column mismatch") {
    val df = edges
    val got = df.groupBy("src").agg(count(lit(1)).as("wrong_name"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(got, outDegreeSql, "edges" -> df)
    }
  }
}
