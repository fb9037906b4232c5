//===- support/ThreadPool.cpp ----------------------------------------------===//

#include "support/ThreadPool.h"

#include <cassert>

using namespace classfuzz;

ThreadPool::ThreadPool(size_t NumThreads) {
  assert(NumThreads <= MaxPoolThreads && "callers bound their thread flags");
  if (NumThreads == 0)
    NumThreads = 1;
  Workers.reserve(NumThreads);
  for (size_t I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerMain() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping with nothing left to drain.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}
