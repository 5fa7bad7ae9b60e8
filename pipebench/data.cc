#include "data.h"

namespace pipebench {

MarkovTreeModel MakeModel(uint32_t attrs, ajd::Rng* rng) {
  // The shape is fixed so that every seed poses the same amount of work:
  // domains cycle through 16..512 and attribute a hangs off (a - 1) / 2,
  // a heap-shaped binary tree. The parent -> child map sends parent value
  // v to perm[v % domain] for a seed-drawn permutation perm of the child's
  // domain: the seed relabels values but never changes which parent values
  // share a child value, so the partitions (and hence the entropies, the
  // mined tree and the work) do not depend on the seed beyond sampling
  // noise. Only the labels and the rows come from the seed.
  static constexpr uint32_t kDomains[] = {512, 64, 16, 256, 32, 128};
  MarkovTreeModel m;
  m.domains.resize(attrs);
  m.parent.resize(attrs, -1);
  m.maps.resize(attrs);
  for (uint32_t a = 0; a < attrs; ++a) {
    m.domains[a] = kDomains[a % 6];
    if (a == 0) continue;
    m.parent[a] = static_cast<int32_t>((a - 1) / 2);
    std::vector<uint32_t> perm(m.domains[a]);
    for (uint32_t v = 0; v < m.domains[a]; ++v) perm[v] = v;
    rng->Shuffle(&perm);
    m.maps[a].resize(m.domains[(a - 1) / 2]);
    for (uint32_t v = 0; v < m.maps[a].size(); ++v) {
      m.maps[a][v] = perm[v % m.domains[a]];
    }
  }
  return m;
}

void SampleRows(const MarkovTreeModel& model, double noise, uint64_t n,
                ajd::Rng* rng, Rows* out) {
  const size_t attrs = model.domains.size();
  out->reserve(out->size() + n);
  for (uint64_t i = 0; i < n; ++i) {
    std::vector<uint32_t> row(attrs);
    row[0] = static_cast<uint32_t>(rng->UniformU64(model.domains[0]));
    for (size_t a = 1; a < attrs; ++a) {
      row[a] = rng->Bernoulli(noise)
                   ? static_cast<uint32_t>(rng->UniformU64(model.domains[a]))
                   : model.maps[a][row[static_cast<size_t>(model.parent[a])]];
    }
    out->push_back(std::move(row));
  }
}

std::vector<std::string> AttrNames(uint32_t attrs) {
  std::vector<std::string> names;
  for (uint32_t a = 0; a < attrs; ++a) names.push_back("a" + std::to_string(a));
  return names;
}

std::string RenderCsv(const Rows& rows, uint32_t attrs) {
  std::string out;
  out.reserve(rows.size() * attrs * 4 + 64);
  const std::vector<std::string> names = AttrNames(attrs);
  for (uint32_t a = 0; a < attrs; ++a) {
    if (a > 0) out += ',';
    out += names[a];
  }
  out += '\n';
  for (const auto& row : rows) {
    for (uint32_t a = 0; a < attrs; ++a) {
      if (a > 0) out += ',';
      out += std::to_string(row[a]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace pipebench
