#include "src/graph/io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>

#include "src/util/atomic_file.h"

namespace robogexp {

Status SaveGraph(const Graph& graph, const std::string& path) {
  AtomicFileWriter writer(path);
  std::ostream& f = writer.stream();
  if (!writer.ok()) return Status::Internal("SaveGraph: cannot open " + path);
  f << "graph " << graph.num_nodes() << " " << graph.num_edges() << " "
    << graph.num_features() << " " << graph.num_classes() << "\n";
  for (const Edge& e : graph.Edges()) {
    f << "e " << e.u << " " << e.v << "\n";
  }
  if (!graph.labels().empty()) {
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      f << "l " << u << " " << graph.labels()[static_cast<size_t>(u)] << "\n";
    }
  }
  if (graph.num_features() > 0) {
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      bool any = false;
      for (int64_t c = 0; c < graph.num_features(); ++c) {
        if (graph.features().at(u, c) != 0.0) {
          any = true;
          break;
        }
      }
      if (!any) continue;
      f << "f " << u;
      for (int64_t c = 0; c < graph.num_features(); ++c) {
        const double v = graph.features().at(u, c);
        if (v == 0.0) continue;
        // Shortest form that reads back to the same double.
        char buf[32];
        const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
        f << " " << c << ":" << std::string_view(buf, end);
      }
      f << "\n";
    }
  }
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    if (!graph.NodeName(u).empty()) {
      f << "n " << u << " " << graph.NodeName(u) << "\n";
    }
  }
  return writer.Commit("SaveGraph");
}

StatusOr<Graph> LoadGraph(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("LoadGraph: cannot open " + path);
  std::string line;
  Graph graph;
  Matrix features;
  std::vector<Label> labels;
  int64_t num_edges = 0;
  int num_classes = 0;
  bool header_seen = false;

  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string tag;
    ss >> tag;
    if (tag == "graph") {
      NodeId n;
      int64_t nf;
      ss >> n >> num_edges >> nf >> num_classes;
      if (!ss || header_seen || n < 0 || num_edges < 0 || nf < 0 ||
          num_classes < 0) {
        return Status::InvalidArgument("LoadGraph: bad header");
      }
      graph = Graph(n);
      features = Matrix(n, nf);
      labels.assign(static_cast<size_t>(n), 0);
      header_seen = true;
    } else if (!header_seen) {
      return Status::InvalidArgument("LoadGraph: data before header");
    } else if (tag == "e") {
      NodeId u, v;
      if (!(ss >> u >> v)) {
        return Status::InvalidArgument("LoadGraph: bad edge");
      }
      RCW_RETURN_IF_ERROR(graph.AddEdge(u, v));
    } else if (tag == "l") {
      NodeId u;
      Label l;
      if (!(ss >> u >> l) || !graph.ValidNode(u) || l < 0 ||
          l >= num_classes) {
        return Status::InvalidArgument("LoadGraph: bad label");
      }
      labels[static_cast<size_t>(u)] = l;
    } else if (tag == "f") {
      NodeId u;
      if (!(ss >> u) || !graph.ValidNode(u)) {
        return Status::InvalidArgument("LoadGraph: bad feature node");
      }
      std::string pair;
      while (ss >> pair) {
        const char* begin = pair.data();
        const char* end = begin + pair.size();
        const char* colon = std::find(begin, end, ':');
        int64_t idx = -1;
        double value = 0.0;
        const auto i = std::from_chars(begin, colon, idx);
        const auto v = std::from_chars(std::min(colon + 1, end), end, value);
        if (colon == end || i.ec != std::errc() || i.ptr != colon ||
            v.ec != std::errc() || v.ptr != end || !std::isfinite(value)) {
          return Status::InvalidArgument("LoadGraph: bad feature pair");
        }
        if (idx < 0 || idx >= features.cols()) {
          return Status::InvalidArgument("LoadGraph: feature index range");
        }
        features.at(u, idx) = value;
      }
    } else if (tag == "n") {
      NodeId u;
      std::string name;
      if (!(ss >> u >> name) || !graph.ValidNode(u)) {
        return Status::InvalidArgument("LoadGraph: bad name node");
      }
      graph.SetNodeName(u, name);
    } else {
      return Status::InvalidArgument("LoadGraph: unknown tag " + tag);
    }
  }
  if (!header_seen) return Status::InvalidArgument("LoadGraph: empty file");
  if (graph.num_edges() != num_edges) {
    return Status::InvalidArgument("LoadGraph: edge count differs from header");
  }
  if (features.cols() > 0) graph.SetFeatures(std::move(features));
  if (num_classes > 0) graph.SetLabels(std::move(labels), num_classes);
  return graph;
}

}  // namespace robogexp
