#include "lacb/persist/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "lacb/persist/serializers.h"

namespace lacb::persist {

namespace {

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("WAL write failed: " + path + ": " +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     uint64_t checkpoint_seq,
                                                     bool do_fsync) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open WAL for writing: " + path + ": " +
                           std::strerror(errno));
  }
  ByteWriter header;
  for (char c : kWalMagic) header.U8(static_cast<uint8_t>(c));
  header.U32(kWalVersion);
  header.U64(checkpoint_seq);
  Status s = WriteAll(fd, header.bytes().data(), header.bytes().size(), path);
  if (s.ok() && do_fsync && ::fsync(fd) != 0) {
    s = Status::IoError("WAL fsync failed: " + path);
  }
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  auto writer =
      std::unique_ptr<WalWriter>(new WalWriter(path, fd, do_fsync));
  writer->bytes_written_ = header.bytes().size();
  return writer;
}

Status WalWriter::AppendRecord(WalRecordType type,
                               const std::string& payload) {
  // Framed as one contiguous write so a crash tears at most this record:
  // len | body | crc(body), where body = type byte + payload.
  std::string body;
  body.push_back(static_cast<char>(type));
  body.append(payload);
  ByteWriter out;
  out.U32(static_cast<uint32_t>(body.size()));
  for (char c : body) out.U8(static_cast<uint8_t>(c));
  out.U32(Crc32(body));
  LACB_RETURN_NOT_OK(
      WriteAll(fd_, out.bytes().data(), out.bytes().size(), path_));
  if (fsync_ && ::fsync(fd_) != 0) {
    return Status::IoError("WAL fsync failed: " + path_);
  }
  ++records_written_;
  bytes_written_ += out.bytes().size();
  if (record_sink_) {
    record_sink_(std::string_view(out.bytes().data(), out.bytes().size()));
  }
  return Status::OK();
}

Status WalWriter::AppendDayOpen(uint64_t day) {
  ByteWriter w;
  w.U64(day);
  return AppendRecord(WalRecordType::kDayOpen, w.bytes());
}

Status WalWriter::AppendDayClose(uint64_t day) {
  ByteWriter w;
  w.U64(day);
  return AppendRecord(WalRecordType::kDayClose, w.bytes());
}

Status WalWriter::AppendBatch(uint64_t token, uint64_t day,
                              uint32_t worker_index,
                              const std::vector<sim::Request>& requests,
                              const std::vector<int64_t>& assignment,
                              SolveOutcome solve) {
  ByteWriter w;
  w.U64(token);
  w.U64(day);
  w.U32(worker_index);
  WriteRequests(&w, requests);
  w.VecI64(assignment);
  w.U8(static_cast<uint8_t>(solve));
  return AppendRecord(WalRecordType::kBatch, w.bytes());
}

Result<WalRecord> DecodeWalRecord(std::string_view body) {
  if (body.empty()) return Status::InvalidArgument("empty WAL record");
  ByteReader payload(body.data() + 1, body.size() - 1);
  WalRecord rec;
  rec.type = static_cast<WalRecordType>(static_cast<uint8_t>(body[0]));
  switch (rec.type) {
    case WalRecordType::kDayOpen:
    case WalRecordType::kDayClose: {
      LACB_ASSIGN_OR_RETURN(rec.day, payload.U64());
      break;
    }
    case WalRecordType::kBatch: {
      LACB_ASSIGN_OR_RETURN(rec.token, payload.U64());
      LACB_ASSIGN_OR_RETURN(rec.day, payload.U64());
      LACB_ASSIGN_OR_RETURN(rec.worker_index, payload.U32());
      LACB_ASSIGN_OR_RETURN(rec.requests, ReadRequests(&payload));
      LACB_ASSIGN_OR_RETURN(rec.assignment, payload.VecI64());
      LACB_ASSIGN_OR_RETURN(uint8_t solve, payload.U8());
      if (solve > static_cast<uint8_t>(SolveOutcome::kSkipped)) {
        return Status::InvalidArgument("WAL batch record: bad solve outcome");
      }
      rec.solve = static_cast<SolveOutcome>(solve);
      break;
    }
    default:
      return Status::InvalidArgument("unknown WAL record type");
  }
  if (payload.remaining() != 0) {
    return Status::InvalidArgument("WAL record has trailing bytes");
  }
  return rec;
}

Result<WalRecovery> RecoverWal(const std::string& path) {
  Result<std::string> raw = ReadFile(path);
  if (!raw.ok()) {
    if (raw.status().code() == StatusCode::kIoError) {
      return Status::NotFound("no WAL at " + path);
    }
    return raw.status();
  }
  const std::string& data = *raw;
  constexpr size_t kHeaderSize = sizeof(kWalMagic) + 4 + 8;
  if (data.size() < kHeaderSize ||
      std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::InvalidArgument("bad WAL header: " + path);
  }
  ByteReader header(data.data() + sizeof(kWalMagic), kHeaderSize -
                                                         sizeof(kWalMagic));
  LACB_ASSIGN_OR_RETURN(uint32_t version, header.U32());
  if (version != kWalVersion) {
    return Status::InvalidArgument("unsupported WAL version " +
                                   std::to_string(version) + " (want " +
                                   std::to_string(kWalVersion) + "): " + path);
  }
  WalRecovery out;
  LACB_ASSIGN_OR_RETURN(out.checkpoint_seq, header.U64());
  out.valid_bytes = kHeaderSize;

  size_t pos = kHeaderSize;
  while (pos < data.size()) {
    ByteReader frame(data.data() + pos, data.size() - pos);
    Result<uint32_t> len = frame.U32();
    if (!len.ok() || *len == 0 || *len > frame.remaining()) {
      out.truncated_torn_tail = true;
      break;
    }
    const char* body = data.data() + pos + 4;
    ByteReader crc_reader(body + *len, frame.remaining() - *len);
    Result<uint32_t> crc = crc_reader.U32();
    if (!crc.ok() || *crc != Crc32(body, *len)) {
      out.truncated_torn_tail = true;
      break;
    }
    // A record whose CRC matched but whose body does not decode means a
    // writer bug or a foreign format; treat it as end-of-valid-log too.
    Result<WalRecord> rec = DecodeWalRecord(std::string_view(body, *len));
    if (!rec.ok()) {
      out.truncated_torn_tail = true;
      break;
    }
    out.records.push_back(std::move(*rec));
    pos += 4 + *len + 4;
    out.valid_bytes = pos;
  }
  return out;
}

}  // namespace lacb::persist
