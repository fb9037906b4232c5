//===- support/ThreadPool.h - Fixed-size worker pool ---------------------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal fixed-size thread pool with a FIFO task queue, used by the
/// CLI's post-campaign difftest (`fuzz --jobs`). Tasks are submitted as
/// callables and their results retrieved through std::future;
/// submission order is preserved by the queue, so a caller that walks
/// the futures in submission order waits on the oldest task first.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_SUPPORT_THREADPOOL_H
#define CLASSFUZZ_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace classfuzz {

/// The most worker threads a command-line flag may ask for. The CLI
/// rejects larger --jobs values before any pool starts.
inline constexpr size_t MaxPoolThreads = 256;

/// Fixed pool of worker threads draining a FIFO queue of tasks.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers (at least one, at most
  /// MaxPoolThreads).
  explicit ThreadPool(size_t NumThreads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Fn; the returned future yields its result. The future's
  /// destructor does not block, so callers may abandon results.
  template <typename Fn>
  auto submit(Fn &&Task) -> std::future<decltype(Task())> {
    using ResultT = decltype(Task());
    auto Packaged = std::make_shared<std::packaged_task<ResultT()>>(
        std::forward<Fn>(Task));
    std::future<ResultT> Out = Packaged->get_future();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Queue.push_back([Packaged]() { (*Packaged)(); });
    }
    WorkAvailable.notify_one();
    return Out;
  }

  size_t numThreads() const { return Workers.size(); }

private:
  void workerMain();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  bool Stopping = false;
};

} // namespace classfuzz

#endif // CLASSFUZZ_SUPPORT_THREADPOOL_H
