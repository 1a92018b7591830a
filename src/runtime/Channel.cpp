//===- runtime/Channel.cpp -------------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "runtime/Channel.h"

#include "gc/Proxy.h"
#include "runtime/Scheduler.h"
#include "support/Assert.h"

#include <mutex>

using namespace manti;

Channel::Channel(Runtime &RT) : RT(RT) { RT.registerGlobalRoots(this); }

Channel::~Channel() { RT.unregisterGlobalRoots(this); }

Channel::Waiter *Channel::claimReceiverLocked() {
  for (Waiter *W : Receivers) {
    bool Expected = false;
    // CAS, not a load/store: a selectRecv waiter is registered on
    // several channels whose senders hold *different* locks, and the
    // waiter itself may self-claim a queued item. Exactly one claimant
    // may fill the cell.
    if (W->Claimed.compare_exchange_strong(Expected, true,
                                           std::memory_order_acq_rel))
      return W;
  }
  return nullptr;
}

void Channel::finishTake(VProc &VP, SendItem *Item) {
  NodeId SenderNode = Item->Node;
  // The release store is the completion flag: the parked sender may
  // return (and destroy the item) the moment it observes Taken, so
  // nothing may touch *Item afterwards.
  Item->Taken.store(true, std::memory_order_release);
  RT.scheduler().ringNode(VP, SenderNode);
}

void Channel::send(VProc &VP, Value V) {
  // Messages are shared with other vprocs: promote before publishing.
  V = VP.heap().promote(V);

  SendItem Item{V.bits(), VP.node(), {}};
  Waiter *Handoff = nullptr;
  {
    std::lock_guard<SpinLock> Guard(Lock);
    Handoff = claimReceiverLocked();
    if (!Handoff)
      Senders.push_back(&Item);
  }
  if (Handoff) {
    // Fill outside the lock (the ring below may enter the kernel). No
    // safe point separates the promote above from the Ready store, so
    // the cell cannot go stale before the waiter's roots cover it; the
    // waiter stays in the Receivers queue until the receiver consumed
    // the message, so the channel's root enumeration keeps the value
    // alive across a global collection between hand-off and wake-up.
    Handoff->CellBits = V.bits();
    Handoff->FilledBy = this;
    NodeId ReceiverNode = Handoff->Node;
    Handoff->Ready.store(true, std::memory_order_release);
    RT.scheduler().ringNode(VP, ReceiverNode);
    return;
  }
  // Synchronous send: park until a receiver takes the message. blockOn
  // keeps polling, so steals are answered and collections can proceed.
  RT.scheduler().blockOn(
      VP, [&] { return Item.Taken.load(std::memory_order_acquire); });
}

bool Channel::tryRecv(VProc &VP, Value &Out) {
  SendItem *Item;
  {
    std::lock_guard<SpinLock> Guard(Lock);
    // A hand-off in flight to a parked receiver (claimed waiter, Ready
    // pending) is invisible here by design: its message was never
    // queued. tryRecv reports "empty" instead of waiting on someone
    // else's handshake to settle.
    if (Senders.empty())
      return false;
    Item = Senders.front();
    Senders.pop_front(); // unlinking under the lock is the claim
  }
  Out = Value::fromBits(Item->Bits);
  finishTake(VP, Item);
  return true;
}

Value Channel::recv(VProc &VP, Value ContData, Value *ContOut) {
  {
    Value Direct;
    if (tryRecv(VP, Direct)) {
      if (ContOut)
        *ContOut = ContData;
      return Direct;
    }
  }

  // Block: park a proxy-wrapped continuation record. The record lives in
  // this vproc's local heap; the proxy is the sanctioned global-to-local
  // reference that keeps it alive and tracked while we are parked. With
  // no continuation there is nothing to protect, so the waiter carries a
  // nil proxy: no global allocation, no ProxyTable entry, no resolve.
  RootScope Scope(VP.heap());
  bool HasCont = !ContData.isNil();
  Value &Proxy =
      Scope.slot(HasCont ? createProxy(VP.heap(), ContData) : Value::nil());

  Waiter W;
  W.ProxyBits = Proxy.bits();
  W.Node = VP.node();
  SendItem *Direct = nullptr;
  bool Enqueued = false;
  {
    std::lock_guard<SpinLock> Guard(Lock);
    // Re-check under the lock: a sender may have arrived meanwhile. The
    // register-or-take decision is atomic under this lock, so no sender
    // can slip between the check and the registration.
    if (!Senders.empty()) {
      Direct = Senders.front();
      Senders.pop_front();
      W.CellBits = Direct->Bits;
      W.Claimed.store(true, std::memory_order_relaxed);
      W.Ready.store(true, std::memory_order_relaxed);
    } else {
      Receivers.push_back(&W);
      Enqueued = true;
    }
  }
  if (Direct)
    finishTake(VP, Direct);
  else
    RT.scheduler().blockOn(
        VP, [&] { return W.Ready.load(std::memory_order_acquire); });

  // Root the message before leaving the waiter queue; there is no safe
  // point between observing Ready and this line, so the value cannot
  // have moved since the channel roots last covered it.
  Value &Msg = Scope.slot(Value::fromBits(W.CellBits));
  if (Enqueued) {
    std::lock_guard<SpinLock> Guard(Lock);
    for (std::size_t I = 0; I < Receivers.size(); ++I) {
      if (Receivers[I] == &W) {
        Receivers.erase(Receivers.begin() +
                        static_cast<std::ptrdiff_t>(I));
        break;
      }
    }
  }

  // Wake-up: collections may have moved both the proxy and the record.
  // Resolve through the rooted proxy slot to recover the continuation.
  Value Cont = HasCont ? resolveProxy(VP.heap(), Proxy) : Value::nil();
  if (ContOut)
    *ContOut = Cont;
  return Msg;
}

Value Channel::selectRecv(VProc &VP, Channel *const *Chans, unsigned N,
                          unsigned *WhichOut) {
  MANTI_CHECK(N > 0, "selectRecv needs at least one channel");

  // Fast path: one polling sweep.
  for (unsigned I = 0; I < N; ++I) {
    Value Out;
    if (Chans[I]->tryRecv(VP, Out)) {
      if (WhichOut)
        *WhichOut = I;
      return Out;
    }
  }

  // Blocking path: register ONE waiter on every channel, then re-sweep
  // for senders that were queued before the registrations landed. The
  // waiter's Claimed flag arbitrates everything: the first sender to
  // claim it fills it, and the re-sweep claims it *ourselves* before
  // taking a queued item, so exactly one message is ever committed.
  RootScope Scope(VP.heap());
  Waiter W;
  W.Node = VP.node();
  for (unsigned I = 0; I < N; ++I) {
    std::lock_guard<SpinLock> Guard(Chans[I]->Lock);
    Chans[I]->Receivers.push_back(&W);
  }

  unsigned Which = N;
  bool SelfClaimed = false;
  for (unsigned I = 0; I < N && !SelfClaimed; ++I) {
    Channel &C = *Chans[I];
    SendItem *Item = nullptr;
    {
      std::lock_guard<SpinLock> Guard(C.Lock);
      if (!C.Senders.empty()) {
        bool Expected = false;
        if (!W.Claimed.compare_exchange_strong(Expected, true,
                                               std::memory_order_acq_rel))
          break; // a sender is filling our waiter; wait for Ready
        Item = C.Senders.front();
        C.Senders.pop_front();
        W.CellBits = Item->Bits;
        W.Ready.store(true, std::memory_order_relaxed);
        Which = I;
        SelfClaimed = true;
      }
    }
    if (Item)
      C.finishTake(VP, Item);
  }
  if (!SelfClaimed)
    VP.runtime().scheduler().blockOn(
        VP, [&] { return W.Ready.load(std::memory_order_acquire); });

  // Root the message before deregistering (the waiter queue's roots are
  // what kept it alive while we were parked).
  Value &Msg = Scope.slot(Value::fromBits(W.CellBits));
  for (unsigned I = 0; I < N; ++I) {
    Channel &C = *Chans[I];
    std::lock_guard<SpinLock> Guard(C.Lock);
    for (std::size_t J = 0; J < C.Receivers.size(); ++J) {
      if (C.Receivers[J] == &W) {
        C.Receivers.erase(C.Receivers.begin() +
                          static_cast<std::ptrdiff_t>(J));
        break;
      }
    }
    if (Which == N && W.FilledBy == &C)
      Which = I;
  }
  MANTI_CHECK(Which < N, "selectRecv got a message from an unknown channel");
  if (WhichOut)
    *WhichOut = Which;
  return Msg;
}

std::size_t Channel::pendingSends() const {
  std::lock_guard<SpinLock> Guard(Lock);
  return Senders.size();
}

std::size_t Channel::pendingRecvs() const {
  std::lock_guard<SpinLock> Guard(Lock);
  return Receivers.size();
}

void Channel::enumerateGlobalRoots(RootSlotVisitor Visit, void *Ctx) {
  std::lock_guard<SpinLock> Guard(Lock);
  for (SendItem *Item : Senders)
    Visit(&Item->Bits, Ctx);
  for (Waiter *W : Receivers) {
    Visit(&W->ProxyBits, Ctx);
    if (W->Ready.load(std::memory_order_acquire))
      Visit(&W->CellBits, Ctx);
  }
}
