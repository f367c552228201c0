#include "pipeline/graph.hpp"

#include <map>

#include "pipeline/keys.hpp"

namespace hidisc::pipeline {

Graph build_graph(const std::vector<lab::Cell>& cells) {
  Graph g;
  // std::map keeps deterministic construction order; the deques keep the
  // node addresses these maps hand out stable.
  std::map<std::string, CompileNode*> compile_by_key;

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const lab::Cell& cell = cells[i];
    const std::string ckey = compile_key(cell.workload, cell.compile);
    CompileNode* cn;
    if (const auto it = compile_by_key.find(ckey);
        it != compile_by_key.end()) {
      cn = it->second;
    } else {
      cn = &g.compiles.emplace_back();
      cn->key = ckey;
      cn->spec = cell.workload;
      cn->options = cell.compile;
      cn->display = cell.workload.name;
      compile_by_key.emplace(ckey, cn);
    }

    SimNode* sn = &g.sims.emplace_back();
    sn->compile = cn;
    sn->mode = mode_for(cell.preset);
    sn->cell = &cell;
    sn->index = i;
    cn->sims.push_back(sn);
  }
  return g;
}

}  // namespace hidisc::pipeline
