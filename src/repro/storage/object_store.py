"""An in-process, bucket-based object store.

The store mimics the subset of the S3 / Azure Blob / Google Cloud Storage
APIs that SeBS benchmarks use through the abstract storage interface:
creating buckets, uploading and downloading objects, listing keys and
deleting objects.  In the original toolkit a minio server plays this role for
local evaluation; here the store is in-process so tests and the simulator can
run without any external service.

All traffic is metered (see :mod:`repro.storage.metering`) so the cost model
can bill requests and transferred bytes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..exceptions import BucketNotFoundError, ObjectNotFoundError, StorageError
from .metering import StorageMetering


@dataclass(frozen=True)
class StoredObject:
    """A single immutable object stored in a bucket."""

    key: str
    data: bytes
    content_type: str = "application/octet-stream"
    metadata: Mapping[str, str] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.data)


class Bucket:
    """A named container of objects."""

    def __init__(self, name: str, metering: StorageMetering):
        if not name:
            raise StorageError("bucket name must be non-empty")
        self.name = name
        self._objects: dict[str, StoredObject] = {}
        self._metering = metering

    def put(
        self,
        key: str,
        data: bytes,
        content_type: str = "application/octet-stream",
        metadata: Mapping[str, str] | None = None,
    ) -> StoredObject:
        """Store ``data`` under ``key``, overwriting any existing object."""
        if not key:
            raise StorageError("object key must be non-empty")
        if not isinstance(data, (bytes, bytearray)):
            raise StorageError("object data must be bytes")
        obj = StoredObject(key=key, data=bytes(data), content_type=content_type, metadata=dict(metadata or {}))
        self._objects[key] = obj
        self._metering.record_write(obj.size)
        return obj

    def get(self, key: str) -> StoredObject:
        """Retrieve the object stored under ``key``."""
        try:
            obj = self._objects[key]
        except KeyError:
            raise ObjectNotFoundError(self.name, key) from None
        self._metering.record_read(obj.size)
        return obj

    def head(self, key: str) -> StoredObject:
        """Like :meth:`get` but does not count transferred bytes."""
        try:
            obj = self._objects[key]
        except KeyError:
            raise ObjectNotFoundError(self.name, key) from None
        self._metering.record_read(0)
        return obj

    def delete(self, key: str) -> None:
        """Remove the object stored under ``key``."""
        if key not in self._objects:
            raise ObjectNotFoundError(self.name, key)
        del self._objects[key]
        self._metering.record_write(0)

    def exists(self, key: str) -> bool:
        return key in self._objects

    def list_keys(self, prefix: str = "") -> list[str]:
        """Return all keys starting with ``prefix`` in lexicographic order."""
        self._metering.record_list()
        return sorted(key for key in self._objects if key.startswith(prefix))

    def __len__(self) -> int:
        return len(self._objects)

    def total_size(self) -> int:
        """Total number of bytes stored in the bucket."""
        return sum(obj.size for obj in self._objects.values())


class ObjectStore:
    """Persistent storage service: a collection of named buckets."""

    def __init__(self, name: str = "object-store"):
        self.name = name
        self.metering = StorageMetering()
        self._buckets: dict[str, Bucket] = {}

    def create_bucket(self, name: str, exist_ok: bool = True) -> Bucket:
        """Create (or fetch, when ``exist_ok``) the bucket called ``name``."""
        if name in self._buckets:
            if exist_ok:
                return self._buckets[name]
            raise StorageError(f"bucket {name!r} already exists")
        bucket = Bucket(name, self.metering)
        self._buckets[name] = bucket
        return bucket

    def bucket(self, name: str) -> Bucket:
        """Return an existing bucket, raising if it does not exist."""
        try:
            return self._buckets[name]
        except KeyError:
            raise BucketNotFoundError(name) from None

    def delete_bucket(self, name: str) -> None:
        if name not in self._buckets:
            raise BucketNotFoundError(name)
        del self._buckets[name]

    def list_buckets(self) -> list[str]:
        return sorted(self._buckets)

    # Convenience helpers mirroring the SeBS abstract storage interface used
    # inside benchmark kernels: a single call to upload or download an object
    # given a (bucket, key) pair.
    def upload(self, bucket: str, key: str, data: bytes, **kwargs) -> StoredObject:
        return self.create_bucket(bucket).put(key, data, **kwargs)

    def download(self, bucket: str, key: str) -> bytes:
        return self.bucket(bucket).get(key).data

    def list_objects(self, bucket: str, prefix: str = "") -> list[str]:
        return self.bucket(bucket).list_keys(prefix)

    def total_size(self) -> int:
        return sum(bucket.total_size() for bucket in self._buckets.values())

    def clear(self) -> None:
        """Remove every bucket and reset metering (used between experiments)."""
        self._buckets.clear()
        self.metering.reset()

    def __contains__(self, name: str) -> bool:
        return name in self._buckets

    def __iter__(self) -> Iterable[Bucket]:
        return iter(self._buckets.values())
