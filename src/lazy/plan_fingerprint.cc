#include "lazy/plan_fingerprint.h"

#include <unordered_set>

#include "common/hash.h"
#include "common/wire.h"
#include "io/columnar.h"
#include "io/fingerprint.h"

namespace lafp::lazy {

namespace {

using Schema = std::vector<std::pair<std::string, std::string>>;

const std::string* Canon(const Schema& schema, const std::string& visible) {
  for (const auto& [v, c] : schema) {
    if (v == visible) return &c;
  }
  return nullptr;
}

bool HasCanonical(const Schema& schema, const std::string& canonical) {
  for (const auto& [v, c] : schema) {
    if (c == canonical) return true;
  }
  return false;
}

bool IdentityNames(const std::optional<Schema>& schema) {
  if (!schema.has_value()) return true;
  for (const auto& [v, c] : *schema) {
    if (v != c) return false;
  }
  return true;
}

/// Output schema of a series op that names its result after its input
/// column (compare/arith/str/dt/... — see exec/eager_ops.cc SeriesName).
/// False when the input statically cannot be viewed as a series.
bool SeriesSchema(const PlanFingerprint& in, std::optional<Schema>* out) {
  if (in.scalar) return false;
  if (!in.schema.has_value()) {
    out->reset();
    return true;
  }
  if (in.schema->size() != 1) return false;
  *out = in.schema;
  return true;
}

Schema IdentitySchema(const std::vector<std::string>& names) {
  Schema s;
  s.reserve(names.size());
  for (const auto& n : names) s.emplace_back(n, n);
  return s;
}

/// The schema after `rename` when it can be normalized away: the engine
/// ignores unknown keys, so only keys present in the schema act, and it is
/// safe when every target is a brand-new name (no chains, swaps or
/// collisions). nullopt otherwise.
std::optional<Schema> NormalizeRename(
    const std::map<std::string, std::string>& rename, Schema schema) {
  std::unordered_set<std::string> targets;
  std::vector<std::pair<std::string, std::string>> effective;
  for (const auto& [k, v] : rename) {
    if (Canon(schema, k) == nullptr) continue;  // ignored key
    if (k == v) continue;                       // no-op entry
    if (Canon(schema, v) != nullptr || !targets.insert(v).second) {
      return std::nullopt;
    }
    effective.emplace_back(k, v);
  }
  for (auto& [visible, canonical] : schema) {
    for (const auto& [k, v] : effective) {
      if (visible == k) {
        visible = v;
        break;
      }
    }
  }
  return schema;
}

}  // namespace

bool PlanFingerprint::identity_names() const { return IdentityNames(schema); }

const PlanFingerprint& PlanFingerprinter::Fingerprint(
    const TaskNodePtr& node) {
  auto it = memo_.find(node.get());
  if (it != memo_.end()) return it->second;
  // Dependencies-first order keeps Compute() non-recursive: every input
  // is memoized before its consumer.
  for (const auto& n : TaskGraph::TopoSort({node})) {
    if (memo_.find(n.get()) == memo_.end()) {
      memo_.emplace(n.get(), Compute(n));
    }
  }
  return memo_.at(node.get());
}

PlanFingerprint PlanFingerprinter::Poison(const TaskNodePtr& node) {
  PlanFingerprint fp;
  fp.cacheable = false;
  fp.plan_hash = HashCombine(
      0x9d15caffe1dULL,
      HashCombine(++poison_seq_, static_cast<uint64_t>(node->id)));
  fp.input_hash = fp.plan_hash;
  return fp;
}

std::optional<uint64_t> PlanFingerprinter::FileHash(const std::string& path) {
  auto it = file_memo_.find(path);
  if (it != file_memo_.end()) return it->second;
  std::optional<uint64_t> hash;
  // Dispatches on the file's magic: LFC files key on their stored
  // footer checksum, everything else on the sampled-content hash.
  auto fp = io::FingerprintInputFile(path);
  if (fp.ok()) hash = fp->hash;
  file_memo_.emplace(path, hash);
  return hash;
}

const std::optional<std::vector<std::string>>& PlanFingerprinter::Header(
    const std::string& path, char delimiter) {
  auto it = header_memo_.find(path);
  if (it != header_memo_.end()) return it->second;
  std::optional<std::vector<std::string>> header;
  auto names = io::ReadCsvHeaderNames(path, delimiter);
  if (names.ok()) {
    std::unordered_set<std::string> seen;
    bool unique = true;
    for (const auto& n : *names) unique &= seen.insert(n).second;
    if (unique) header = *std::move(names);
  }
  return header_memo_.emplace(path, std::move(header)).first->second;
}

const std::optional<std::vector<std::string>>& PlanFingerprinter::LfcColumns(
    const std::string& path) {
  auto it = lfc_header_memo_.find(path);
  if (it != lfc_header_memo_.end()) return it->second;
  std::optional<std::vector<std::string>> names;
  auto info = io::ReadLfcInfo(path);
  if (info.ok()) {
    names.emplace();
    names->reserve(info->columns.size());
    for (const auto& c : info->columns) names->push_back(c.name);
  }
  return lfc_header_memo_.emplace(path, std::move(names)).first->second;
}

PlanFingerprint PlanFingerprinter::Compute(const TaskNodePtr& node) {
  using exec::OpKind;
  using exec::OutputNames;
  const exec::OpDesc& d = node->desc;
  // A spliced node reuses the fingerprint its subtree carried at splice
  // time, so later rounds over a partially spliced graph hash exactly like
  // the original plan.
  if (d.kind == OpKind::kMaterialized && node->spliced_fp != nullptr) {
    return *node->spliced_fp;
  }
  std::vector<const PlanFingerprint*> ins;
  ins.reserve(node->inputs.size());
  bool inputs_cacheable = true;
  for (const auto& in : node->inputs) {
    const PlanFingerprint& f = memo_.at(in.get());
    inputs_cacheable &= f.cacheable;
    ins.push_back(&f);
  }
  const PlanFingerprint* first = ins.empty() ? nullptr : ins[0];
  const std::optional<Schema> no_schema;
  const std::optional<Schema>& in0 = first ? first->schema : no_schema;

  if (d.kind == OpKind::kRename && in0.has_value()) {
    std::optional<Schema> renamed = NormalizeRename(d.rename, *in0);
    if (renamed.has_value()) {
      // The rename vanishes: the node hashes exactly like its input and
      // only the visible->canonical map changes.
      PlanFingerprint out = *first;
      out.cacheable = inputs_cacheable;
      out.schema = std::move(renamed);
      out.scalar = false;
      return out;
    }
    // Order-dependent rename (swap/chain): only structurally sound when
    // nothing upstream was name-normalized.
    if (!first->identity_names()) return Poison(node);
  }

  PlanFingerprint fp;
  fp.cacheable = inputs_cacheable;
  switch (exec::Traits(d.kind).names) {
    case OutputNames::kNone:
      return Poison(node);
    case OutputNames::kInput:
      fp.schema = in0;
      break;
    case OutputNames::kSeries: {
      // Named after the column-valued operand (eager_ops.cc SeriesName: a
      // runtime-scalar lhs of arith takes the rhs name).
      const PlanFingerprint* src = nullptr;
      for (const auto* f : ins) {
        if (!f->scalar) {
          src = f;
          break;
        }
      }
      if (src == nullptr || !SeriesSchema(*src, &fp.schema)) {
        return Poison(node);
      }
      break;
    }
    case OutputNames::kScalar:
      // A reduction needs a series; a frame input would error at runtime.
      if (d.kind == OpKind::kReduce &&
          (first->scalar || (in0.has_value() && in0->size() != 1))) {
        return Poison(node);
      }
      fp.scalar = true;
      fp.schema = Schema{};
      break;
    case OutputNames::kEngine:
      // Output names we cannot model are sound only when no input carries
      // a non-identity canonicalization (then raw names were hashed
      // everywhere and any equal-hash plan used the same names).
      for (const auto* f : ins) {
        if (!f->identity_names()) return Poison(node);
      }
      break;  // schema unknown
    case OutputNames::kCustom:
      if (!CustomSchema(d, in0, &fp)) return Poison(node);
      break;
  }

  // Input-column references hash under their canonical names: mapped
  // through a known input schema, raw otherwise. A name missing from a
  // known schema would KeyError at runtime, so such plans never cache;
  // set_item's target is the exception, it may name a fresh column.
  const bool fresh_ok = d.kind == OpKind::kSetColumn;
  const exec::ColumnNameMap canonical =
      [&](const std::string& name) -> const std::string* {
    if (!in0.has_value()) return &name;
    const std::string* c = Canon(*in0, name);
    return c == nullptr && fresh_ok ? &name : c;
  };
  WireWriter key;
  if (!exec::EncodeOpDesc(d, &key, canonical)) return Poison(node);
  fp.plan_hash = Fnv1a64(key.Take());
  for (const auto* in : ins) {
    fp.plan_hash = HashCombine(fp.plan_hash, in->plan_hash);
    fp.input_hash = HashCombine(fp.input_hash, in->input_hash);
  }
  return fp;
}

bool PlanFingerprinter::CustomSchema(const exec::OpDesc& d,
                                     const std::optional<Schema>& in0,
                                     PlanFingerprint* fp) {
  using exec::OpKind;
  auto canonical_or_raw = [&](const std::string& name) {
    const std::string* c = in0.has_value() ? Canon(*in0, name) : nullptr;
    return c != nullptr ? *c : name;
  };
  switch (d.kind) {
    case OpKind::kReadCsv: {
      auto file = FileHash(d.path);
      if (!file.has_value()) return false;
      fp->input_hash = *file;
      const auto& header = Header(d.path, d.csv_options.delimiter);
      if (!d.csv_options.usecols.empty()) {
        fp->schema = IdentitySchema(d.csv_options.usecols);
      } else if (header.has_value()) {
        fp->schema = IdentitySchema(*header);
      }
      return true;
    }
    case OpKind::kReadLfc: {
      auto file = FileHash(d.path);
      if (!file.has_value()) return false;
      fp->input_hash = *file;
      if (!d.lfc_options.usecols.empty()) {
        fp->schema = IdentitySchema(d.lfc_options.usecols);
      } else {
        const auto& names = LfcColumns(d.path);
        if (names.has_value()) fp->schema = IdentitySchema(*names);
      }
      return true;
    }
    case OpKind::kSelect: {
      Schema s;
      for (const auto& c : d.columns) s.emplace_back(c, canonical_or_raw(c));
      fp->schema = std::move(s);
      return true;
    }
    case OpKind::kGetColumn:
      fp->schema = Schema{{d.column, canonical_or_raw(d.column)}};
      return true;
    case OpKind::kSetColumn: {
      if (!in0.has_value()) return true;  // schema stays unknown
      Schema s = *in0;
      if (Canon(s, d.column) == nullptr) {
        // Fresh column: its visible name becomes its canonical name, which
        // must not collide with an existing canonical slot. An overwrite
        // keeps name and position.
        if (HasCanonical(s, d.column)) return false;
        s.emplace_back(d.column, d.column);
      }
      fp->schema = std::move(s);
      return true;
    }
    case OpKind::kDropColumns: {
      if (!in0.has_value()) return true;
      Schema s = *in0;
      for (const auto& c : d.columns) {
        for (auto it = s.begin(); it != s.end(); ++it) {
          if (it->first == c) {
            s.erase(it);
            break;
          }
        }
      }
      fp->schema = std::move(s);
      return true;
    }
    case OpKind::kRename:
      return true;  // not normalizable (see Compute): schema unknown
    case OpKind::kGroupByAgg: {
      Schema s;
      std::unordered_set<std::string> visible_seen, canonical_seen;
      bool ok = true;
      for (const auto& k : d.columns) {
        std::string c = canonical_or_raw(k);
        ok &= visible_seen.insert(k).second && canonical_seen.insert(c).second;
        s.emplace_back(k, std::move(c));
      }
      for (const auto& a : d.aggs) {
        ok &= visible_seen.insert(a.out_name).second &&
              canonical_seen.insert(a.out_name).second;
        s.emplace_back(a.out_name, a.out_name);
      }
      if (!ok) return false;  // ambiguous output naming
      fp->schema = std::move(s);
      return true;
    }
    default:
      return false;  // a kCustom kind without a rule here
  }
}

}  // namespace lafp::lazy
