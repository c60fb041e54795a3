package repro

import scala.collection.mutable

package object core {

  /** Algorithm-weighted adjacency: u -> [(v, F-weight of (u, v))]. Every
    * driver-side graph an engine propagates over (the full graph, Layph's
    * effective graph and skeleton) has this form; [[GraphState]] is the one
    * place that turns raw rows into it.
    */
  type Adjacency = Map[Long, Array[(Long, Double)]]

  /** The reverse of an adjacency: v -> [(u, w)] for every edge (u, v, w). */
  def reverse(adj: Adjacency): Adjacency = {
    val acc = mutable.LongMap.empty[mutable.ArrayBuffer[(Long, Double)]]
    adj.foreach { case (u, outs) =>
      outs.foreach { case (v, w) => acc.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += ((u, w)) }
    }
    acc.iterator.map { case (v, b) => (v, b.toArray) }.toMap
  }
}
