#include "src/gnn/serialize.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "src/gnn/appnp.h"
#include "src/gnn/gat.h"
#include "src/gnn/gcn.h"
#include "src/gnn/gin.h"
#include "src/gnn/sage.h"
#include "src/util/atomic_file.h"

namespace robogexp {

namespace {

void WriteMatrix(std::ostream& os, const Matrix& m) {
  os << "matrix " << m.rows() << " " << m.cols() << "\n";
  os << std::setprecision(17);
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t c = 0; c < m.cols(); ++c) {
      os << m.at(r, c) << (c + 1 < m.cols() ? ' ' : '\n');
    }
  }
}

Status ReadMatrix(std::istream& is, Matrix* out) {
  std::string tag;
  int64_t rows, cols;
  if (!(is >> tag >> rows >> cols) || tag != "matrix" || rows < 0 || cols < 0 ||
      (cols > 0 && rows > std::numeric_limits<int64_t>::max() / cols)) {
    return Status::InvalidArgument("LoadModel: bad matrix header");
  }
  // Entries are read as they come, so a header larger than the file fails
  // at its end instead of allocating for entries that are not there.
  std::vector<double> values;
  double x = 0.0;
  while (static_cast<int64_t>(values.size()) < rows * cols && is >> x) {
    values.push_back(x);
  }
  if (static_cast<int64_t>(values.size()) < rows * cols) {
    return Status::InvalidArgument("LoadModel: truncated matrix");
  }
  Matrix m(rows, cols);
  std::copy(values.begin(), values.end(), m.data());
  *out = std::move(m);
  return Status::OK();
}

}  // namespace

Status SaveModel(const GnnModel& model, const std::string& path) {
  AtomicFileWriter writer(path);
  if (!writer.ok()) return Status::Internal("SaveModel: cannot open " + path);
  RCW_RETURN_IF_ERROR(SaveModel(model, writer.stream()));
  return writer.Commit("SaveModel");
}

Status SaveModel(const GnnModel& model, std::ostream& f) {
  if (const auto* gcn = dynamic_cast<const GcnModel*>(&model)) {
    f << "gnnmodel GCN " << gcn->num_layers() << "\n";
    for (int i = 0; i < gcn->num_layers(); ++i) {
      WriteMatrix(f, gcn->weights()[static_cast<size_t>(i)]);
      WriteMatrix(f, gcn->biases()[static_cast<size_t>(i)]);
    }
  } else if (const auto* gin = dynamic_cast<const GinModel*>(&model)) {
    f << "gnnmodel GIN " << gin->num_layers() << " " << std::setprecision(17)
      << gin->epsilon() << "\n";
    for (int i = 0; i < gin->num_layers(); ++i) {
      WriteMatrix(f, gin->weights()[static_cast<size_t>(i)]);
      WriteMatrix(f, gin->biases()[static_cast<size_t>(i)]);
    }
  } else if (const auto* appnp = dynamic_cast<const AppnpModel*>(&model)) {
    f << "gnnmodel APPNP " << std::setprecision(17) << appnp->alpha() << "\n";
    WriteMatrix(f, appnp->theta());
    WriteMatrix(f, appnp->bias());
  } else if (const auto* sage = dynamic_cast<const SageModel*>(&model)) {
    f << "gnnmodel SAGE " << sage->num_layers() << "\n";
    for (const auto& layer : sage->layers()) {
      WriteMatrix(f, layer.w_self);
      WriteMatrix(f, layer.w_neigh);
      WriteMatrix(f, layer.bias);
    }
  } else if (const auto* gat = dynamic_cast<const GatModel*>(&model)) {
    f << "gnnmodel GAT " << gat->num_layers() << "\n";
    for (const auto& layer : gat->layers()) {
      WriteMatrix(f, layer.w);
      WriteMatrix(f, layer.attn_src);
      WriteMatrix(f, layer.attn_dst);
      WriteMatrix(f, layer.bias);
    }
  } else {
    return Status::InvalidArgument("SaveModel: unsupported model type " +
                                   model.name());
  }
  f.flush();
  if (!f) return Status::Internal("SaveModel: write failed");
  return Status::OK();
}

StatusOr<std::unique_ptr<GnnModel>> LoadModel(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("LoadModel: cannot open " + path);
  std::string tag, type;
  if (!(f >> tag >> type) || tag != "gnnmodel") {
    return Status::InvalidArgument("LoadModel: bad header");
  }

  // Layers are read as they come, not pre-sized from the header's count, so
  // a count larger than the file fails at the file's end. Shapes are checked
  // before a model is built: its constructor aborts on what its
  // CheckParameters rejects.
  if (type == "GCN" || type == "GIN") {
    int layers;
    double eps = 0.0;
    if (!(f >> layers) || layers <= 0) {
      return Status::InvalidArgument("LoadModel: bad layer count");
    }
    if (type == "GIN" && !(f >> eps)) {
      return Status::InvalidArgument("LoadModel: bad epsilon");
    }
    std::vector<Matrix> weights, biases;
    for (int i = 0; i < layers; ++i) {
      RCW_RETURN_IF_ERROR(ReadMatrix(f, &weights.emplace_back()));
      RCW_RETURN_IF_ERROR(ReadMatrix(f, &biases.emplace_back()));
    }
    if (type == "GCN") {
      RCW_RETURN_IF_ERROR(GcnModel::CheckParameters(weights, biases));
      return std::unique_ptr<GnnModel>(
          new GcnModel(std::move(weights), std::move(biases)));
    }
    RCW_RETURN_IF_ERROR(GinModel::CheckParameters(weights, biases));
    return std::unique_ptr<GnnModel>(
        new GinModel(std::move(weights), std::move(biases), eps));
  }
  if (type == "APPNP") {
    double alpha;
    if (!(f >> alpha)) return Status::InvalidArgument("LoadModel: bad alpha");
    Matrix theta, bias;
    RCW_RETURN_IF_ERROR(ReadMatrix(f, &theta));
    RCW_RETURN_IF_ERROR(ReadMatrix(f, &bias));
    RCW_RETURN_IF_ERROR(AppnpModel::CheckParameters(theta, bias, alpha));
    return std::unique_ptr<GnnModel>(
        new AppnpModel(std::move(theta), std::move(bias), alpha));
  }
  if (type == "SAGE") {
    int layers;
    if (!(f >> layers) || layers <= 0) {
      return Status::InvalidArgument("LoadModel: bad layer count");
    }
    std::vector<SageModel::Layer> ls;
    for (int i = 0; i < layers; ++i) {
      SageModel::Layer& layer = ls.emplace_back();
      RCW_RETURN_IF_ERROR(ReadMatrix(f, &layer.w_self));
      RCW_RETURN_IF_ERROR(ReadMatrix(f, &layer.w_neigh));
      RCW_RETURN_IF_ERROR(ReadMatrix(f, &layer.bias));
    }
    RCW_RETURN_IF_ERROR(SageModel::CheckParameters(ls));
    return std::unique_ptr<GnnModel>(new SageModel(std::move(ls)));
  }
  if (type == "GAT") {
    int layers;
    if (!(f >> layers) || layers <= 0) {
      return Status::InvalidArgument("LoadModel: bad layer count");
    }
    std::vector<GatModel::Layer> ls;
    for (int i = 0; i < layers; ++i) {
      GatModel::Layer& layer = ls.emplace_back();
      RCW_RETURN_IF_ERROR(ReadMatrix(f, &layer.w));
      RCW_RETURN_IF_ERROR(ReadMatrix(f, &layer.attn_src));
      RCW_RETURN_IF_ERROR(ReadMatrix(f, &layer.attn_dst));
      RCW_RETURN_IF_ERROR(ReadMatrix(f, &layer.bias));
    }
    RCW_RETURN_IF_ERROR(GatModel::CheckParameters(ls));
    return std::unique_ptr<GnnModel>(new GatModel(std::move(ls)));
  }
  return Status::InvalidArgument("LoadModel: unknown model type " + type);
}

}  // namespace robogexp
