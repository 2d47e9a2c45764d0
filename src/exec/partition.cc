#include "exec/partition.h"

#include <filesystem>

#include "common/macros.h"
#include "dataframe/ops.h"
#include "exec/spill.h"

namespace lafp::exec {

Status Partition::SpillTo(const std::string& dir, const std::string& name) {
  if (spilled()) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string path = dir + "/" + name + ".part.bin";
  LAFP_RETURN_NOT_OK(WriteSpillFile(frame_, path));
  spill_path_ = path;
  frame_ = df::DataFrame();  // releases the memory reservation
  return Status::OK();
}

Result<df::DataFrame> Partition::Load(MemoryTracker* tracker) const {
  if (!spilled()) return frame_;
  return ReadSpillFile(spill_path_, tracker);
}

Status PartitionedFrame::SpillAll(const std::string& dir,
                                  const std::string& name_prefix) {
  for (size_t i = 0; i < partitions_.size(); ++i) {
    LAFP_RETURN_NOT_OK(partitions_[i]->SpillTo(
        dir, name_prefix + "_" + std::to_string(i)));
  }
  return Status::OK();
}

Result<df::DataFrame> PartitionedFrame::ToEager(
    MemoryTracker* tracker) const {
  if (partitions_.empty()) return df::DataFrame();
  std::vector<df::DataFrame> frames;
  frames.reserve(partitions_.size());
  for (const auto& p : partitions_) {
    LAFP_ASSIGN_OR_RETURN(df::DataFrame f, p->Load(tracker));
    frames.push_back(std::move(f));
  }
  if (frames.size() == 1) return frames[0];
  return df::Concat(frames);
}

Result<PartitionedFrame> PartitionedFrame::FromEager(
    const df::DataFrame& frame, size_t partition_rows) {
  PartitionedFrame out;
  if (partition_rows == 0) partition_rows = 65536;
  size_t n = frame.num_rows();
  if (n == 0) {
    out.Add(frame);
    return out;
  }
  for (size_t offset = 0; offset < n; offset += partition_rows) {
    LAFP_ASSIGN_OR_RETURN(df::DataFrame chunk,
                          frame.SliceRows(offset, partition_rows));
    out.Add(std::move(chunk));
  }
  return out;
}

}  // namespace lafp::exec
