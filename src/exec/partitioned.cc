#include "exec/partitioned.h"

#include "common/macros.h"
#include "exec/agg_twophase.h"
#include "exec/partition.h"

namespace lafp::exec {

Result<std::unique_ptr<ScanUnits>> ScanUnits::Open(const OpDesc& desc,
                                                   size_t partition_rows,
                                                   MemoryTracker* tracker) {
  std::unique_ptr<ScanUnits> units(new ScanUnits());
  units->partition_rows_ = partition_rows == 0 ? 65536 : partition_rows;
  if (desc.kind == OpKind::kReadCsv) {
    LAFP_ASSIGN_OR_RETURN(
        units->csv_,
        io::CsvChunkReader::Open(desc.path, desc.csv_options, tracker));
  } else if (desc.kind == OpKind::kReadLfc) {
    LAFP_ASSIGN_OR_RETURN(units->lfc_, io::LfcReader::Open(desc.path, tracker));
    LAFP_ASSIGN_OR_RETURN(units->lfc_columns_,
                          units->lfc_->SelectColumns(desc.lfc_options.usecols));
    units->lfc_slices_ = units->lfc_->Slices(desc.lfc_options);
    units->lfc_categories_ = desc.lfc_options.categories;
  } else {
    return Status::Invalid(std::string("not a scan: ") + Traits(desc.kind).name);
  }
  return units;
}

Result<std::optional<ScanUnit>> ScanUnits::Next() {
  if (done_) return std::optional<ScanUnit>();
  ScanUnit unit;
  bool found = false;
  if (csv_ != nullptr) {
    LAFP_ASSIGN_OR_RETURN(std::optional<io::CsvRange> range,
                          csv_->NextRange(partition_rows_));
    found = range.has_value();
    if (found) unit.range = *range;
  } else {
    found = emitted_ < lfc_slices_.size();
    if (found) unit.slice = lfc_slices_[emitted_];
  }
  if (!found) {
    done_ = true;
    if (emitted_ > 0) return std::optional<ScanUnit>();
    unit.empty = true;
  }
  ++emitted_;
  return std::optional<ScanUnit>(unit);
}

Result<df::DataFrame> ScanUnits::Read(const ScanUnit& unit) const {
  if (csv_ != nullptr) {
    return unit.empty ? csv_->EmptyFrame() : csv_->ParseRange(unit.range);
  }
  if (unit.empty) return lfc_->ReadSlices(lfc_columns_, {}, lfc_categories_);
  return lfc_->ReadSlices(lfc_columns_, {unit.slice}, lfc_categories_);
}

Strategy StrategyOf(const OpDesc& desc) {
  const OpKind kind = desc.kind;
  if (kind == OpKind::kReadCsv || kind == OpKind::kReadLfc) {
    return Strategy::kScan;
  }
  if (kind == OpKind::kMerge) return Strategy::kMerge;
  if (kind == OpKind::kLen) return Strategy::kLen;
  if (kind == OpKind::kConcat) return Strategy::kChain;
  if (CombinerFor(desc) != nullptr) return Strategy::kCombine;
  return Traits(kind).Is(OpTraits::kMap) ? Strategy::kMap : Strategy::kGather;
}

namespace {

bool IsFrame(const BackendValue& value) {
  return !value.is_scalar && value.frame != nullptr;
}

}  // namespace

bool PartitionedBackend::SupportsOp(const OpDesc& desc) const {
  return desc.kind != OpKind::kPrint;
}

int64_t PartitionedBackend::RowCount(const BackendValue& value) const {
  if (value.is_scalar) return 1;
  if (value.frame == nullptr) return -1;
  Result<std::vector<uint64_t>> rows = Rows(*value.frame);
  if (!rows.ok()) return -1;
  uint64_t total = 0;
  for (uint64_t r : *rows) total += r;
  return static_cast<int64_t>(total);
}

Result<BackendValue> PartitionedBackend::ExecutePartitioned(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  const Strategy strategy = StrategyOf(desc);
  if (strategy == Strategy::kScan) {
    LAFP_ASSIGN_OR_RETURN(BackendFramePtr frame, Scan(desc));
    return BackendValue::Frame(std::move(frame));
  }
  // Every other strategy partitions its first input; anything else is the
  // eager kernel's to accept or reject.
  if (inputs.empty() || !IsFrame(inputs[0])) return Gather(desc, inputs);
  switch (strategy) {
    case Strategy::kMap: {
      if (!Aligned(inputs)) break;
      LAFP_ASSIGN_OR_RETURN(BackendFramePtr out, RunKeep(desc, inputs));
      return BackendValue::Frame(std::move(out));
    }
    case Strategy::kCombine: {
      std::unique_ptr<Combiner> combiner = CombinerFor(desc);
      std::vector<df::DataFrame> parts;
      if (const OpDesc* phase_one = combiner->phase_one()) {
        // Only the leading partitions the combiner needs (head's prefix).
        LAFP_ASSIGN_OR_RETURN(std::vector<uint64_t> rows,
                              Rows(*inputs[0].frame));
        size_t limit = 0;
        for (uint64_t have = 0;
             limit < rows.size() && !combiner->Enough(limit, have);) {
          have += rows[limit++];
        }
        LAFP_ASSIGN_OR_RETURN(parts,
                              RunReturn(*phase_one, {inputs[0]}, limit));
      } else {
        LAFP_ASSIGN_OR_RETURN(parts, Fetch(*inputs[0].frame));
        PayTasks(parts.size());
      }
      // Folded in partition order: first-appearance order, and so the
      // bytes, are the same for every partition placement.
      for (auto& part : parts) {
        LAFP_RETURN_NOT_OK(combiner->AddPartial(std::move(part)));
      }
      LAFP_ASSIGN_OR_RETURN(EagerValue out, combiner->Finish());
      return FromEagerPartitioned(out);
    }
    case Strategy::kLen: {
      const int64_t rows = RowCount(inputs[0]);
      if (rows < 0) break;
      return BackendValue::FromScalar(df::Scalar::Int(rows));
    }
    case Strategy::kMerge: {
      if (inputs.size() != 2 || !IsFrame(inputs[1])) break;
      LAFP_ASSIGN_OR_RETURN(EagerValue right,
                            MaterializePartitioned(inputs[1]));
      LAFP_ASSIGN_OR_RETURN(BackendFramePtr bcast,
                            Broadcast(right.frame, *inputs[0].frame));
      LAFP_ASSIGN_OR_RETURN(
          BackendFramePtr out,
          RunKeep(desc, {inputs[0], BackendValue::Frame(std::move(bcast))}));
      return BackendValue::Frame(std::move(out));
    }
    case Strategy::kScan:
    case Strategy::kChain:
    case Strategy::kGather:
      break;
  }
  return Gather(desc, inputs);
}

bool PartitionedBackend::Aligned(
    const std::vector<BackendValue>& inputs) const {
  Result<std::vector<uint64_t>> rows = Rows(*inputs[0].frame);
  if (!rows.ok()) return false;
  for (size_t i = 1; i < inputs.size(); ++i) {
    if (inputs[i].is_scalar) continue;
    if (inputs[i].frame == nullptr) return false;
    Result<std::vector<uint64_t>> other = Rows(*inputs[i].frame);
    if (!other.ok() || *other != *rows ||
        !Colocated(*inputs[0].frame, *inputs[i].frame)) {
      return false;
    }
  }
  return true;
}

Result<BackendValue> PartitionedBackend::Gather(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  const df::KernelContext* kernels = gather_kernels();
  std::optional<df::KernelScope> kernel_scope;
  if (kernels != nullptr) kernel_scope.emplace(kernels);
  std::vector<EagerValue> eager_inputs;
  eager_inputs.reserve(inputs.size());
  for (const auto& in : inputs) {
    LAFP_ASSIGN_OR_RETURN(EagerValue v, MaterializePartitioned(in));
    eager_inputs.push_back(std::move(v));
  }
  PayTasks(1);
  LAFP_ASSIGN_OR_RETURN(EagerValue out,
                        ExecuteEagerOp(desc, eager_inputs, tracker_));
  return FromEagerPartitioned(out);
}

Result<EagerValue> PartitionedBackend::MaterializePartitioned(
    const BackendValue& value) {
  if (value.is_scalar) return EagerValue::FromScalar(value.scalar);
  if (value.frame == nullptr) {
    return Status::Invalid(std::string("empty value passed to ") + name());
  }
  LAFP_ASSIGN_OR_RETURN(std::vector<df::DataFrame> parts,
                        Fetch(*value.frame));
  LAFP_ASSIGN_OR_RETURN(df::DataFrame whole,
                        ConcatPartitions(std::move(parts)));
  return EagerValue::Frame(std::move(whole));
}

Result<BackendValue> PartitionedBackend::FromEagerPartitioned(
    const EagerValue& value) {
  if (value.is_scalar) return BackendValue::FromScalar(value.scalar);
  LAFP_ASSIGN_OR_RETURN(BackendFramePtr frame, Place(value.frame));
  return BackendValue::Frame(std::move(frame));
}

}  // namespace lafp::exec
