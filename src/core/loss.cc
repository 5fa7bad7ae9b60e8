#include "core/loss.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "engine/groupings.h"
#include "relation/row_hash.h"
#include "util/math.h"

namespace ajd {

namespace {

Status CheckLossInputs(const Relation& r, uint64_t n, AttrSet attrs,
                       const char* what) {
  if (n == 0) {
    return Status::FailedPrecondition("loss is undefined for |R| = 0");
  }
  if (!attrs.IsSubsetOf(r.schema().AllAttrs())) {
    return Status::InvalidArgument(std::string(what) +
                                   " references attributes outside the "
                                   "relation");
  }
  return Status::OK();
}

Status CheckMvdInputs(const Relation& r, uint64_t n, const Mvd& mvd) {
  Status st = CheckLossInputs(r, n, mvd.Universe(), "MVD");
  if (!st.ok()) return st;
  if (!mvd.WellFormed()) {
    return Status::InvalidArgument("malformed MVD: " + mvd.ToString());
  }
  return Status::OK();
}

LossReport MakeReport(uint64_t n, double join_size,
                      std::optional<uint64_t> join_size_exact) {
  LossReport report;
  report.num_tuples = n;
  report.join_size = join_size;
  report.join_size_exact = join_size_exact;
  const double nd = static_cast<double>(n);
  report.rho = (join_size - nd) / nd;
  // R is contained in R' whenever chi(T) covers R's attributes; guard
  // against tiny negative values from floating point accumulation.
  if (report.rho < 0.0 && report.rho > -1e-9) report.rho = 0.0;
  report.log1p_rho = std::log1p(report.rho);
  return report;
}

// |R'| by Yannakakis count propagation over class labels. Every bag and
// separator is a projection of the same R, so no bag class dangles: each
// separator class a bag class reaches has a message entry. Bag classes are
// visited in first-occurrence row order — the order in which the hash form
// walks its distinct projections — so the double sums match it bit for
// bit, and the uint64 sums carry the same overflow checks.
AcyclicJoinCount CountJoinOnGroupings(PinnedGroupings* g,
                                      const JoinTree& tree) {
  const DfsDecomposition dec = tree.Decompose(0);
  const uint32_t m = tree.NumNodes();
  const uint64_t n = g->rows();
  std::vector<std::vector<uint32_t>> children(m);
  std::vector<const RowClasses*> up(m, nullptr);  // separator with parent
  for (const DfsStep& s : dec.steps) {
    children[s.parent].push_back(s.node);
    up[s.node] = &g->ClassesOf(s.delta);
  }
  // A message: per separator class of the sender, the number of join
  // results in its subtree consistent with that class.
  struct Message {
    std::vector<double> approx;
    std::vector<uint64_t> exact;
    bool exact_valid = true;
  };
  std::vector<Message> messages(m);
  std::vector<uint8_t> repeat(n);  // row is not its bag class's first
  for (size_t oi = dec.order.size(); oi-- > 0;) {
    const uint32_t v = dec.order[oi];
    const bool is_root = oi == 0;
    std::fill(repeat.begin(), repeat.end(), uint8_t{0});
    const std::shared_ptr<const Partition> bag = g->PartitionOf(tree.bag(v));
    for (uint32_t b = 0; b < bag->NumBlocks(); ++b) {
      for (const uint32_t* row = bag->BlockBegin(b) + 1;
           row != bag->BlockEnd(b); ++row) {
        repeat[*row] = 1;
      }
    }
    // The root sends its total as a message over one class.
    const uint32_t classes = is_root ? 1 : up[v]->num_classes;
    Message msg;
    msg.approx.assign(classes, 0.0);
    msg.exact.assign(classes, 0);
    for (uint64_t i = 0; i < n; ++i) {
      if (repeat[i] != 0) continue;
      double w_approx = 1.0;
      uint64_t w_exact = 1;
      bool w_exact_valid = true;
      for (uint32_t c : children[v]) {
        const Message& cm = messages[c];
        const uint32_t k = up[c]->label[i];
        w_approx *= cm.approx[k];
        std::optional<uint64_t> prod;
        if (w_exact_valid && cm.exact_valid) {
          prod = CheckedMul(w_exact, cm.exact[k]);
        }
        if (prod) {
          w_exact = *prod;
        } else {
          w_exact_valid = false;
        }
      }
      const uint32_t k = is_root ? 0 : up[v]->label[i];
      msg.approx[k] += w_approx;
      std::optional<uint64_t> sum;
      if (msg.exact_valid && w_exact_valid) {
        sum = CheckedAdd(msg.exact[k], w_exact);
      }
      if (sum) {
        msg.exact[k] = *sum;
      } else {
        msg.exact_valid = false;
      }
    }
    for (uint32_t c : children[v]) messages[c] = Message{};
    messages[v] = std::move(msg);
  }
  const Message& root = messages[dec.order[0]];
  AcyclicJoinCount out;
  out.approx = root.approx[0];
  if (root.exact_valid) out.exact = root.exact[0];
  return out;
}

}  // namespace

Result<LossReport> ComputeLoss(const Relation& r, const JoinTree& tree) {
  Status st = CheckLossInputs(r, r.NumRows(), tree.AllAttrs(), "join tree");
  if (!st.ok()) return st;
  AcyclicJoinCount count = CountAcyclicJoin(r, tree);
  return MakeReport(r.NumRows(), count.approx, count.exact);
}

Result<LossReport> ComputeLoss(AnalysisSession* session, const Relation& r,
                               const JoinTree& tree) {
  PinnedGroupings groupings(session, r);
  return ComputeLoss(&groupings, tree);
}

Result<LossReport> ComputeLoss(PinnedGroupings* groupings,
                               const JoinTree& tree) {
  Status st = CheckLossInputs(groupings->relation(), groupings->rows(),
                              tree.AllAttrs(), "join tree");
  if (!st.ok()) return st;
  AcyclicJoinCount count = CountJoinOnGroupings(groupings, tree);
  return MakeReport(groupings->rows(), count.approx, count.exact);
}

Result<LossReport> ComputeMvdLoss(const Relation& r, const Mvd& mvd) {
  Status st = CheckMvdInputs(r, r.NumRows(), mvd);
  if (!st.ok()) return st;
  // Natural-join key = all shared attributes of the two sides.
  AttrSet key_attrs = mvd.side_a.Intersect(mvd.side_b);
  std::vector<uint32_t> a_pos = mvd.side_a.ToIndices();
  std::vector<uint32_t> b_pos = mvd.side_b.ToIndices();
  std::vector<uint32_t> key_pos = key_attrs.ToIndices();

  // Count distinct side tuples grouped by the join key. A side tuple embeds
  // its key, so it suffices to dedupe side tuples and bump per-key counts;
  // the join size is then sum_k cntA(k) * cntB(k).
  uint64_t join_size = 0;
  if (key_pos.empty()) {
    // Cross product of the distinct side tuples.
    uint64_t a_count = 0;
    uint64_t b_count = 0;
    {
      TupleCounter side(a_pos.size(), r.NumRows());
      std::vector<uint32_t> t(a_pos.size());
      for (uint64_t i = 0; i < r.NumRows(); ++i) {
        for (size_t k = 0; k < a_pos.size(); ++k) t[k] = r.Row(i)[a_pos[k]];
        side.Add(t.data());
      }
      a_count = side.NumDistinct();
    }
    {
      TupleCounter side(b_pos.size(), r.NumRows());
      std::vector<uint32_t> t(b_pos.size());
      for (uint64_t i = 0; i < r.NumRows(); ++i) {
        for (size_t k = 0; k < b_pos.size(); ++k) t[k] = r.Row(i)[b_pos[k]];
        side.Add(t.data());
      }
      b_count = side.NumDistinct();
    }
    join_size = a_count * b_count;
  } else {
    auto group = [&r](const std::vector<uint32_t>& side_pos,
                      const std::vector<uint32_t>& key_pos_global,
                      TupleCounter* keys, std::vector<uint64_t>* counts) {
      TupleCounter side(side_pos.size(), r.NumRows());
      std::vector<uint32_t> side_t(side_pos.size());
      std::vector<uint32_t> key_t(key_pos_global.size());
      for (uint64_t i = 0; i < r.NumRows(); ++i) {
        const uint32_t* row = r.Row(i);
        for (size_t k = 0; k < side_pos.size(); ++k) {
          side_t[k] = row[side_pos[k]];
        }
        if (side.Find(side_t.data()) != UINT32_MAX) continue;
        side.Add(side_t.data());
        for (size_t k = 0; k < key_pos_global.size(); ++k) {
          key_t[k] = row[key_pos_global[k]];
        }
        uint32_t idx = keys->Add(key_t.data());
        if (idx >= counts->size()) counts->resize(idx + 1, 0);
        ++(*counts)[idx];
      }
    };
    TupleCounter a_keys(key_pos.size(), r.NumRows());
    std::vector<uint64_t> a_counts;
    group(a_pos, key_pos, &a_keys, &a_counts);
    TupleCounter b_keys(key_pos.size(), r.NumRows());
    std::vector<uint64_t> b_counts;
    group(b_pos, key_pos, &b_keys, &b_counts);
    for (uint32_t i = 0; i < a_keys.NumDistinct(); ++i) {
      uint32_t j = b_keys.Find(a_keys.TupleAt(i));
      if (j != UINT32_MAX) join_size += a_counts[i] * b_counts[j];
    }
  }

  return MakeReport(r.NumRows(), static_cast<double>(join_size), join_size);
}

Result<LossReport> ComputeMvdLoss(AnalysisSession* session, const Relation& r,
                                  const Mvd& mvd) {
  PinnedGroupings groupings(session, r);
  return ComputeMvdLoss(&groupings, mvd);
}

Result<LossReport> ComputeMvdLoss(PinnedGroupings* groupings, const Mvd& mvd) {
  Status st = CheckMvdInputs(groupings->relation(), groupings->rows(), mvd);
  if (!st.ok()) return st;
  // A side contains the join key, so each side block lies inside one key
  // class: a key class of s rows holds s distinct side tuples, less
  // (size - 1) for every side block within it.
  const RowClasses& keys =
      groupings->ClassesOf(mvd.side_a.Intersect(mvd.side_b));
  auto distinct_per_key = [&](AttrSet side) {
    std::vector<uint64_t> count(keys.num_classes);
    for (uint32_t k = 0; k < keys.num_classes; ++k) count[k] = keys.Size(k);
    const std::shared_ptr<const Partition> p = groupings->PartitionOf(side);
    for (uint32_t b = 0; b < p->NumBlocks(); ++b) {
      count[keys.label[*p->BlockBegin(b)]] -= p->BlockSize(b) - 1;
    }
    return count;
  };
  const std::vector<uint64_t> a_count = distinct_per_key(mvd.side_a);
  const std::vector<uint64_t> b_count = distinct_per_key(mvd.side_b);
  // Row ids are uint32, so sum_k cntA(k) * cntB(k) <= n^2 fits in uint64.
  uint64_t join_size = 0;
  for (uint32_t k = 0; k < keys.num_classes; ++k) {
    join_size += a_count[k] * b_count[k];
  }
  return MakeReport(groupings->rows(), static_cast<double>(join_size),
                    join_size);
}

}  // namespace ajd
