package perfbench

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark work attributed to one job group. `jobMs` is the time covered by
  * at least one running job, clipped to the window it was asked for.
  */
final case class SparkWork(
    jobs: Int,
    stages: Int,
    tasks: Int,
    taskRunMs: Long,
    shuffleWriteBytes: Long,
    resultBytes: Long,
    jobMs: Long,
)

/** Listener that sums jobs, stages, tasks and task metrics per job group;
  * it registers itself with `sc`. The benchmark sets a fresh job group around each traced `update` call;
  * events of other groups, or of no group, are ignored.
  */
final class SparkTrace(sc: SparkContext) extends SparkListener {
  private final class Acc {
    var jobs, stages, tasks, ended = 0
    var runMs, shuffleBytes, resultBytes = 0L
    val intervals = mutable.ArrayBuffer.empty[(Long, Long)]
  }
  private val byGroup = mutable.HashMap.empty[String, Acc]
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val jobGroup = mutable.HashMap.empty[Int, (String, Long)]
  private var markers = 0
  sc.addSparkListener(this)

  private def acc(g: String): Acc = byGroup.getOrElseUpdate(g, new Acc)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { g =>
      acc(g).jobs += 1
      e.stageIds.foreach(stageGroup(_) = g)
      jobGroup(e.jobId) = (g, e.time)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobGroup.remove(e.jobId).foreach { case (g, start) =>
      val a = acc(g); a.ended += 1; a.intervals += ((start, e.time))
    }
    notifyAll()
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    stageGroup.get(e.stageInfo.stageId).foreach(acc(_).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageGroup.get(e.stageId).foreach { g =>
      val a = acc(g); a.tasks += 1
      val m = e.taskMetrics
      if (m != null) {
        a.runMs += m.executorRunTime
        a.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        a.resultBytes += m.resultSize
      }
    }
  }

  /** Runs `body` with every Spark job it starts in a fresh job group. */
  def traced[T](group: String)(body: => T): T = {
    sc.setJobGroup(group, group, interruptOnCancel = false)
    try body finally sc.clearJobGroup()
  }

  /** Waits until the listener has seen every event posted so far: it runs a
    * one-task marker job and waits for that job's end event, which the
    * listener bus delivers after all earlier events.
    */
  def drain(timeoutMs: Long = 30000): Unit = {
    markers += 1
    val marker = s"perfbench-marker-$markers"
    traced(marker)(sc.parallelize(Seq(1), 1).count())
    val deadline = System.currentTimeMillis() + timeoutMs
    synchronized {
      while (!byGroup.get(marker).exists(_.ended > 0)) {
        val left = deadline - System.currentTimeMillis()
        if (left <= 0) throw new IllegalStateException("Spark listener did not drain in time")
        wait(left)
      }
      byGroup.remove(marker)
    }
  }

  /** Work of `group` within the wall-clock window [fromMs, toMs]. */
  def work(group: String, fromMs: Long, toMs: Long): SparkWork = synchronized {
    val a = byGroup.getOrElse(group, new Acc)
    var covered = 0L; var reach = fromMs
    a.intervals.sortBy(_._1).foreach { case (s, e) =>
      val lo = math.max(s, reach); val hi = math.min(e, toMs)
      if (hi > lo) { covered += hi - lo; reach = hi }
    }
    SparkWork(a.jobs, a.stages, a.tasks, a.runMs, a.shuffleBytes, a.resultBytes, covered)
  }
}
