"""The cluster-aware client: manifest routing + transparent MOVED retry.

A :class:`ClusterClient` holds a :class:`~repro.cluster.manifest.ClusterManifest`
(loaded from a file, passed in, or bootstrapped from any *seed* address
via the ``Op.CLUSTER`` frame) and routes every key to the shard server
the manifest names, by the same crc32 partitioning the servers
themselves enforce.  Per-server connections are opened lazily and
pooled, so a client touching two shards pays for two connections, not
``num_shards``.

Referral handling is the cluster's consistency mechanism, not an error
path: a server answering ``MOVED`` (stale manifest, mid-migration
traffic) makes the client refresh its manifest — preferring the
document served by the *referred-to* address, falling back to patching
the single routing entry the referral carried — and retry after a
short, growing delay, bounded by ``max_retries``.  A connection failure
retries the same way, which also covers the one-moment window in which
a promoted shard server rebinds its port.

``multi_get`` / ``multi_put`` split each batch per owning server, issue
the sub-batches concurrently, and reassemble positionally; a referral
on any sub-batch re-splits only the affected keys.  ``scan`` fans the
range over every shard and k-way merges the per-shard pages into one
key-ordered stream.  ``root`` returns the composite ``Hstate`` — the
hash over the ordered per-shard roots, exactly
:meth:`repro.sharding.engine.ShardedCole.root_digest` — so a cluster's
state can be compared byte-for-byte against a single-process oracle.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.manifest import ClusterManifest
from repro.common.errors import StorageError
from repro.common.hashing import hash_concat
from repro.server import protocol
from repro.server.client import KVClient, ServerClient, parse_host_port
from repro.server.protocol import MovedError, Op, Referral, RootInfo


class ClusterClient(KVClient):
    """Route every op by the manifest; follow MOVED referrals."""

    def __init__(
        self,
        manifest: Optional[ClusterManifest] = None,
        manifest_file: Optional[str] = None,
        seeds: Sequence[str] = (),
        pool_size: int = 1,
        max_retries: int = 6,
        retry_delay: float = 0.05,
    ) -> None:
        if manifest is None and manifest_file is None and not seeds:
            raise StorageError(
                "a cluster client needs a manifest, a manifest file, or "
                "at least one seed address"
            )
        self._manifest = manifest
        self._manifest_file = manifest_file
        self._seeds = list(seeds)
        self.pool_size = pool_size
        self.max_retries = max_retries
        self.retry_delay = retry_delay
        self._clients: Dict[str, ServerClient] = {}
        self._connected = False
        #: MOVED referrals followed (the transparently-retried kind).
        self.moved_retries = 0
        #: Manifest refreshes performed (referrals + connection failures).
        self.manifest_refreshes = 0

    # -- lifecycle ------------------------------------------------------------

    @property
    def manifest(self) -> ClusterManifest:
        if self._manifest is None:
            raise StorageError("client is not connected")
        return self._manifest

    async def connect(self) -> "ClusterClient":
        """Resolve the manifest (file, then seeds); connections are lazy."""
        if self._manifest is None and self._manifest_file is not None:
            self._manifest = ClusterManifest.load(self._manifest_file)
        if self._manifest is None:
            self._manifest = await self._fetch_manifest(self._seeds)
        self._connected = True
        return self

    async def close(self) -> None:
        clients, self._clients = self._clients, {}
        self._connected = False
        for client in clients.values():
            await client.close()

    async def _client_for(self, address: str) -> ServerClient:
        client = self._clients.get(address)
        if client is None:
            client = ServerClient(*parse_host_port(address), pool_size=self.pool_size)
            await client.connect()
            self._clients[address] = client
        return client

    async def _drop_client(self, address: str) -> None:
        client = self._clients.pop(address, None)
        if client is not None:
            await client.close()

    # -- manifest refresh -----------------------------------------------------

    async def _fetch_manifest(
        self, addresses: Sequence[str]
    ) -> ClusterManifest:
        """The manifest as served by the first answering address."""
        last_error: Optional[Exception] = None
        for address in addresses:
            try:
                return await fetch_manifest(address)
            except (StorageError, ConnectionError, OSError) as exc:
                last_error = exc
        raise StorageError(
            f"no cluster manifest reachable via {list(addresses)}: {last_error}"
        )

    def _known_addresses(self) -> List[str]:
        """Every address worth asking for a manifest, dedup'd in order."""
        seen: Dict[str, None] = {}
        if self._manifest is not None:
            for assignment in self._manifest.shards:
                seen.setdefault(assignment.address)
            for control in self._manifest.nodes.values():
                seen.setdefault(control)
        for seed in self._seeds:
            seen.setdefault(seed)
        return list(seen)

    async def refresh_manifest(
        self, prefer: Optional[str] = None
    ) -> ClusterManifest:
        """Re-fetch the manifest, keeping the newest epoch seen."""
        self.manifest_refreshes += 1
        addresses = self._known_addresses()
        if prefer is not None:
            addresses = [prefer] + [a for a in addresses if a != prefer]
        fetched = await self._fetch_manifest(addresses)
        if self._manifest is None or fetched.epoch >= self._manifest.epoch:
            self._manifest = fetched
        return self._manifest

    async def _on_referral(self, exc: Referral) -> None:
        """Adopt what a MOVED referral teaches before retrying.

        The referred-to server has the post-cutover manifest, so prefer
        a full refresh from it; if unreachable (mid-promotion rebind),
        patch the single entry the referral named — enough to retry —
        and let a later refresh reconcile.
        """
        self.moved_retries += 1
        try:
            await self.refresh_manifest(prefer=exc.address)
        except StorageError:
            pass
        if (
            isinstance(exc, MovedError)
            and exc.shard_id is not None
            and self._manifest is not None
            and exc.manifest_epoch >= self._manifest.epoch
            and self._manifest.address_of(exc.shard_id) != exc.address
        ):
            # Refresh couldn't reach anyone with the newer document
            # (e.g. the promoted server is rebinding): patch the one
            # entry the referral named — enough to retry correctly.
            self._manifest = self._manifest.with_addresses(
                {exc.shard_id: exc.address}
            )

    async def _call(self, address_of, issue):
        """Issue ``issue(client)`` against ``address_of(manifest)``,
        retrying through referrals and connection failures."""
        last_exc: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            address = address_of(self.manifest)
            try:
                client = await self._client_for(address)
                return await issue(client)
            except Referral as exc:
                last_exc = exc
                await self._on_referral(exc)
            except (ConnectionError, OSError) as exc:
                last_exc = exc
                await self._drop_client(address)
                try:
                    await self.refresh_manifest()
                except StorageError:
                    pass
            # Back off after referrals too: mid-migration the source and
            # target can refer to each other until the promote lands.
            if attempt < self.max_retries:
                await asyncio.sleep(self.retry_delay * (attempt + 1))
        raise StorageError(
            f"cluster op failed after {self.max_retries + 1} attempts: "
            f"{last_exc}"
        )

    def _shard_call(self, shard_id: int, issue):
        return self._call(lambda m: m.address_of(shard_id), issue)

    def _keyed_call(self, addr: bytes, issue):
        return self._call(lambda m: m.owner_address(addr), issue)

    # -- point ops ------------------------------------------------------------

    async def put(self, addr: bytes, value: bytes) -> int:
        return await self._keyed_call(addr, lambda c: c.put(addr, value))

    async def get(self, addr: bytes) -> Optional[bytes]:
        return await self._keyed_call(addr, lambda c: c.get(addr))

    async def get_at(self, addr: bytes, blk: int) -> Optional[bytes]:
        return await self._keyed_call(addr, lambda c: c.get_at(addr, blk))

    async def prov(
        self, addr: bytes, blk_low: int, blk_high: int
    ) -> Tuple[object, bytes]:
        return await self._keyed_call(
            addr, lambda c: c.prov(addr, blk_low, blk_high)
        )

    # -- batched ops ----------------------------------------------------------

    async def multi_get(self, addrs: Sequence[bytes]) -> List[Optional[bytes]]:
        """Batched read, split per owner and reassembled positionally."""
        addrs = list(addrs)
        results: List[Optional[bytes]] = [None] * len(addrs)

        async def issue(client: ServerClient, positions: List[int]) -> None:
            values = await client.multi_get([addrs[p] for p in positions])
            for position, value in zip(positions, values):
                results[position] = value

        await self._fan_out(list(enumerate(addrs)), issue)
        return results

    async def multi_put(self, items: Sequence[Tuple[bytes, bytes]]) -> int:
        """Batched write, split per owner; returns the *highest* height
        assigned — each shard commits independently, and the max is the
        height at which every key of the batch is readable."""
        items = list(items)
        heights: List[int] = []

        async def issue(client: ServerClient, positions: List[int]) -> None:
            heights.append(await client.multi_put([items[p] for p in positions]))

        await self._fan_out(
            [(pos, addr) for pos, (addr, _) in enumerate(items)], issue
        )
        return max(heights)

    async def _fan_out(self, indexed, issue) -> None:
        """Split ``(position, addr)`` pairs per owning server, run
        ``issue(client, positions)`` per group concurrently, and
        **re-split** any group a referral or connection failure touched.

        Re-splitting (rather than retrying a group verbatim against one
        server) matters mid-migration: a group built from the stale
        manifest can span keys that now live on *different* servers, and
        only re-grouping under the refreshed manifest can ever route it
        correctly.
        """
        pending: List[Tuple[int, bytes]] = list(indexed)
        last_exc: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            manifest = self.manifest
            groups: Dict[str, List[Tuple[int, bytes]]] = {}
            for position, addr in pending:
                groups.setdefault(manifest.owner_address(addr), []).append(
                    (position, addr)
                )
            failed: List[Tuple[int, bytes]] = []
            failures: List[Exception] = []

            async def run_group(address: str, members) -> None:
                try:
                    client = await self._client_for(address)
                    await issue(client, [p for p, _ in members])
                except Referral as exc:
                    failures.append(exc)
                    failed.extend(members)
                    await self._on_referral(exc)
                except (ConnectionError, OSError) as exc:
                    failures.append(exc)
                    failed.extend(members)
                    await self._drop_client(address)
                    try:
                        await self.refresh_manifest()
                    except StorageError:
                        pass

            await asyncio.gather(
                *(run_group(address, members) for address, members in groups.items())
            )
            if not failed:
                return
            last_exc = failures[-1]
            pending = failed
            if attempt < self.max_retries:
                await asyncio.sleep(self.retry_delay * (attempt + 1))
        raise StorageError(
            f"cluster batch failed after {self.max_retries + 1} attempts: "
            f"{last_exc}"
        )

    # -- range scans ----------------------------------------------------------

    async def scan(
        self,
        addr_low: bytes,
        addr_high: bytes,
        *,
        at_blk: Optional[int] = None,
        limit: Optional[int] = None,
        page_size: int = 0,
    ) -> List[Tuple[bytes, int, bytes]]:
        """Key-ordered range scan across every shard, k-way merged.

        The hash partitioning spreads any address range over all shards,
        so the fan-out is total by construction.  Each shard's pages are
        snapshot-consistent on that shard (the server pins them); the
        merged result is per-shard consistent, which is the cluster's
        contract — cross-shard heights advance independently.
        """
        per_shard = await asyncio.gather(
            *(
                self._shard_call(
                    shard_id,
                    lambda c: c.scan(
                        addr_low,
                        addr_high,
                        at_blk=at_blk,
                        limit=limit,
                        page_size=page_size,
                    ),
                )
                for shard_id in range(self.manifest.num_shards)
            )
        )
        merged = heapq.merge(*per_shard, key=lambda row: row[0])
        if limit is not None:
            return list(itertools.islice(merged, limit))
        return list(merged)

    # -- control plane --------------------------------------------------------

    async def shard_roots(self) -> List[RootInfo]:
        """Every shard's ROOT, in shard order."""
        return list(
            await asyncio.gather(
                *(
                    self._shard_call(shard_id, lambda c: c.root())
                    for shard_id in range(self.manifest.num_shards)
                )
            )
        )

    async def root(self) -> RootInfo:
        """The composite state anchor: ``hash(root_0 || ... || root_n)``
        over the ordered shard roots — byte-identical to a
        ``ShardedCole`` holding the same per-shard states, so cluster
        state is comparable against a single-process oracle."""
        roots = await self.shard_roots()
        return RootInfo(
            digest=hash_concat([info.digest for info in roots]),
            version=sum(info.version for info in roots),
            height=max(info.height for info in roots),
        )

    async def flush(self) -> RootInfo:
        """Force a group commit on every shard; composite anchor back."""
        flushed = await asyncio.gather(
            *(
                self._shard_call(shard_id, lambda c: c.flush())
                for shard_id in range(self.manifest.num_shards)
            )
        )
        return RootInfo(
            digest=hash_concat([info.digest for info in flushed]),
            version=sum(info.version for info in flushed),
            height=max(info.height for info in flushed),
        )

    async def stats(self) -> dict:
        """Cluster-shaped STATS: the manifest plus every shard's STATS."""
        per_shard = await asyncio.gather(
            *(
                self._shard_call(shard_id, lambda c: c.stats())
                for shard_id in range(self.manifest.num_shards)
            )
        )
        manifest = self.manifest
        return {
            "cluster": {
                "manifest_epoch": manifest.epoch,
                "num_shards": manifest.num_shards,
                "nodes": dict(manifest.nodes),
                "moved_retries": self.moved_retries,
                "manifest_refreshes": self.manifest_refreshes,
            },
            "shards": {
                str(shard_id): stats
                for shard_id, stats in enumerate(per_shard)
            },
            # Aggregates the loadgen report formatter reads.
            "ops": _sum_ops(per_shard),
            "cache": _merge_cache(
                [stats.get("cache", {}) for stats in per_shard]
            ),
            "negative_cache": _merge_cache(
                [stats.get("negative_cache", {}) for stats in per_shard]
            ),
        }

    async def metrics(self) -> str:
        """Per-shard-server expositions, concatenated with origin notes."""
        manifest = self.manifest
        addresses: Dict[str, List[int]] = {}
        for shard_id in range(manifest.num_shards):
            addresses.setdefault(manifest.address_of(shard_id), []).append(
                shard_id
            )
        parts: List[str] = []
        for address, shard_ids in addresses.items():
            text = await self._call(
                lambda m, a=address: a, lambda c: c.metrics()
            )
            parts.append(
                f"# cluster server {address} (shards {shard_ids})\n{text}"
            )
        return "\n".join(parts)


def _sum_ops(per_shard: List[dict]) -> dict:
    totals: Dict[str, int] = {}
    for stats in per_shard:
        for name, count in stats.get("ops", {}).items():
            totals[name] = totals.get(name, 0) + count
    return totals


def _merge_cache(snapshots: List[dict]) -> dict:
    hits = sum(s.get("hits", 0) for s in snapshots)
    misses = sum(s.get("misses", 0) for s in snapshots)
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "lookups": lookups,
        "hit_rate": hits / lookups if lookups else 0.0,
        "entries": sum(s.get("entries", 0) for s in snapshots),
    }


async def _exchange(address: str, frame: bytes) -> dict:
    """One request frame on a fresh connection; its JSON answer back."""
    host, port = parse_host_port(address)
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(frame)
        await writer.drain()
        body = await protocol.read_frame(reader)
        if body is None:
            raise StorageError(f"{address} closed the connection")
        return protocol.decode_json_response(body)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def fetch_manifest(address: str) -> ClusterManifest:
    """One-shot manifest fetch from any cluster member."""
    data = await _exchange(address, protocol.encode_simple(Op.CLUSTER))
    return ClusterManifest.from_dict(data)


async def admin_call(address: str, command: dict) -> dict:
    """One ADMIN command against a node's control server."""
    return await _exchange(address, protocol.encode_admin(command))
